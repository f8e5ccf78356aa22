package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
)

// The dense result pool. A caller that drops a product — the server drops
// every multiply product once it has read its shape, and a stored product
// is a Repartition copy — hands its dense tile buffers back with Recycle,
// and the dense targets of later products are taken from them instead of
// from fresh memory (MultiplyOpt's plan). A recycled buffer still holds its
// old product; the row body that owns a chunk of the target's rows clears
// exactly those rows just before the first contribution lands in them,
// while they are in cache. A fresh buffer is already zero and is not
// cleared again.
//
// Buffers are matched by exact cell count and stay one per tile: a slab
// per product would let one live tile pin a whole dropped product (the
// assembly comment in MultiplyOpt). Retention has no knob: the list holds
// at most the dense bytes of the largest product recycled so far (nothing
// until Recycle is first called, so a library caller that never recycles
// keeps nothing), and a collection that finds the list untouched since the
// collection before drops it.
var denseFree freeDense

type freeDense struct {
	mu    sync.Mutex
	bufs  map[int][][]float64 // by cell count
	held  int64               // bytes in bufs
	limit int64               // the dense bytes of the largest product recycled so far
	used  bool                // taken from or given to since the last collection
}

// recycleHits and recycleMisses count dense targets taken from the list
// and made fresh.
var recycleHits, recycleMisses atomic.Int64

// RecycleStats is a snapshot of the dense result pool.
type RecycleStats struct {
	HeldBytes    int64 // bytes of dense buffers waiting for a product
	Hits, Misses int64 // dense targets taken from the pool, and made fresh
}

// Recycled returns the pool's current state.
func Recycled() RecycleStats {
	denseFree.mu.Lock()
	held := denseFree.held
	denseFree.mu.Unlock()
	return RecycleStats{HeldBytes: held, Hits: recycleHits.Load(), Misses: recycleMisses.Load()}
}

// Recycle hands the dense tile buffers of c, a product the caller holds the
// only reference to and reads no more, to the dense targets of later
// products, and leaves each dense tile's D.Data nil: a read of one after
// Recycle panics instead of seeing another product's values. Shapes, NNZ
// and Bytes stay readable. Recycling c again does nothing.
func Recycle(c *ATMatrix) {
	var bytes int64
	for _, t := range c.Tiles {
		if t.Kind == mat.DenseKind && t.D.Data != nil {
			bytes += t.Bytes()
		}
	}
	f := &denseFree
	f.mu.Lock()
	f.limit = max(f.limit, bytes)
	for _, t := range c.Tiles {
		if t.Kind != mat.DenseKind || t.D.Data == nil {
			continue
		}
		// Only a compact buffer of the tile's own is matched by its cell
		// count; anything else is left to the collector.
		if d := t.D; d.Stride == d.Cols && len(d.Data) == d.Rows*d.Cols && cap(d.Data) == len(d.Data) {
			f.give(d.Data)
		}
		t.D.Data = nil
	}
	f.mu.Unlock()
}

// takeDense returns a target buffer of n cells: a recycled one, which
// still holds an old product (dirty), or a fresh, zeroed one.
func takeDense(n int) (buf []float64, dirty bool) {
	f := &denseFree
	f.mu.Lock()
	if l := f.bufs[n]; len(l) > 0 {
		buf = l[len(l)-1]
		l[len(l)-1] = nil
		f.bufs[n] = l[:len(l)-1]
		f.held -= cellBytes(n)
		f.used = true
		f.mu.Unlock()
		recycleHits.Add(1)
		return buf, true
	}
	f.mu.Unlock()
	recycleMisses.Add(1)
	return make([]float64, n), false
}

// giveDense returns a target buffer no tile kept — an empty dense target's.
func giveDense(buf []float64) {
	f := &denseFree
	f.mu.Lock()
	f.give(buf)
	f.mu.Unlock()
}

// give adds buf to the list if that keeps it within the limit. Caller
// holds mu.
func (f *freeDense) give(buf []float64) {
	b := cellBytes(len(buf))
	if f.held+b > f.limit {
		return
	}
	if f.bufs == nil {
		f.bufs = make(map[int][][]float64)
	}
	f.bufs[len(buf)] = append(f.bufs[len(buf)], buf)
	f.held += b
	f.used = true
}

func cellBytes(n int) int64 { return int64(n) * mat.SizeDense }

// The sparse accumulator slot. The row chunks of a split sparse-target
// pair (splitPairs) write one shared kernels.SpAcc, a segment each; the
// chunk that plans the pair takes it from here and the chunk that assembles
// it gives it back, so its grow-only segments stay warm from product to
// product the way a worker's own accumulator does for a whole pair. The
// slot holds one accumulator: a product that finds it taken makes a fresh
// one, and a give that finds it full drops its own. Collections leave it
// alone, like a worker's scratch: the dense pool's idle drop made a caller
// that allocates between its products grow a fresh accumulator for every
// one (0.5*A'*A+0.5*A on R8 runs three collections per expression). What it
// holds counts in MultStats.ScratchBytes.
var accFree accSlot

type accSlot struct {
	mu  sync.Mutex
	acc *kernels.SpAcc
}

// take returns an accumulator for a rows×cols target with no row written:
// the slot's, segment capacity retained, or a fresh one.
func (f *accSlot) take(rows, cols int) *kernels.SpAcc {
	f.mu.Lock()
	acc := f.acc
	f.acc = nil
	f.mu.Unlock()
	if acc == nil {
		return kernels.NewSpAcc(rows, cols)
	}
	acc.Reset(rows, cols)
	return acc
}

// give hands back an accumulator no pass writes any more.
func (f *accSlot) give(acc *kernels.SpAcc) {
	f.mu.Lock()
	if f.acc == nil {
		f.acc = acc
	}
	f.mu.Unlock()
}

// bytes returns the resident bytes of the accumulator the slot holds.
func (f *accSlot) bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.acc == nil {
		return 0
	}
	return f.acc.Bytes()
}

// collectionTick is garbage as soon as it is made; its finalizer runs
// after the next collection, drops the dense list if nothing was taken from
// or given to it since the collection before, and arms the next tick. The
// pointer field keeps it out of the tiny allocator, whose objects may
// never be finalized.
type collectionTick struct{ _ *int }

func armCollectionTick() {
	runtime.SetFinalizer(&collectionTick{}, func(*collectionTick) {
		f := &denseFree
		f.mu.Lock()
		if !f.used {
			f.bufs, f.held = nil, 0
		}
		f.used = false
		f.mu.Unlock()
		armCollectionTick()
	})
}

func init() { armCollectionTick() }
