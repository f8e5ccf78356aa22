package main

import (
	"math"
	"math/rand"
	"time"
)

// The host-speed reference.
//
// The benchmark's hosts are small shared VMs whose speed drifts by tens of
// percent over minutes (measured on the reference host: the same binary, the
// same inputs, ATMULT of R1 between 27 and 50 ms within ten minutes, every
// workload moving together). A gate on raw wall time would measure the
// neighbours. So the driver interleaves a fixed job of its own with the
// requests — while the closed loop has the server idle — and divides the
// timing metrics by how much slower than nominal that job ran.
//
// The job is written here and calls nothing from the repository, so no change
// to the system under test can move it. It has a compute part (the probe's
// gemmBlocked on 96² float64 operands, twelve times) and a memory-latency
// part (65 536 random gathers from a 32 MiB array, twelve times); the factor
// is the geometric mean of the two parts' slowdowns. Of the candidates tried against ATMULT of R1, R3, R9 and
// G9 over eleven minutes of drift (15 s buckets), this one left the smallest
// worst-case spread (7.5 %, from 9–25 % raw); a streaming part over-corrects,
// and either part alone fits only the dense or only the sparse operands.
//
// The nominal times are the quiet-period medians of the reference host, so a
// normalized millisecond is a millisecond there. They only set the scale: a
// parent and a change are compared under the same constants.
const (
	refGemmNominalMS   = 2.75
	refGatherNominalMS = 4.4
	refGemmN           = 96
	refReps            = 12
	refEvery           = 500 * time.Millisecond // at most one sample per this much of the window
)

type hostRef struct {
	a, b, c []float64 // gemm operands
	x, y    []float64 // gather source (32 MiB) and sink
	idx     []int32
}

func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(20160516)) // fixed: the reference does not depend on -seed
	n := refGemmN
	r := &hostRef{a: make([]float64, n*n), b: make([]float64, n*n), c: make([]float64, n*n)}
	for i := range r.a {
		r.a[i], r.b[i] = rng.Float64(), rng.Float64()
	}
	r.x = make([]float64, 4<<20)
	for i := range r.x {
		r.x[i] = 1
	}
	r.idx = make([]int32, 1<<16)
	for i := range r.idx {
		r.idx[i] = int32(rng.Intn(len(r.x)))
	}
	r.y = make([]float64, len(r.idx))
	return r
}

// run executes the job once and returns the two parts' milliseconds.
func (r *hostRef) run() (gemmMS, gatherMS float64) {
	t0 := time.Now()
	for rep := 0; rep < refReps; rep++ {
		gemmBlocked(r.c, r.a, r.b, refGemmN)
	}
	t1 := time.Now()
	for rep := 0; rep < refReps; rep++ {
		for i, j := range r.idx {
			r.y[i] += 0.5 * r.x[j]
		}
	}
	t2 := time.Now()
	return millis(t1.Sub(t0)), millis(t2.Sub(t1))
}

// sample returns the host's current slowdown factor: 1 at nominal speed, 1.3
// when the job takes 30 % longer. The job runs twice back to back and the
// second run counts, so that a thread that just woke from waiting on the
// network is not what is measured.
func (r *hostRef) sample() float64 {
	r.run()
	g, ga := r.run()
	return math.Sqrt(g / refGemmNominalMS * ga / refGatherNominalMS)
}
