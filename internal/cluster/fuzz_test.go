package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"atmatrix/internal/alloccheck"
	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

// FuzzShardPut throws arbitrary bodies at the one handler that accepts
// operand bytes, with the CRC query parameter computed over the body so
// the checksum gate passes and the decoder behind it is what gets fuzzed.
// Never a panic; heap bytes ≤ 32·len(body) + 2 MiB (the body slurped by
// io.ReadAll, then core's decoder bound: 16× and a 1 MiB read buffer); a
// rejected upload leaves the store empty, and an accepted one holds a
// matrix that re-serializes to the body it came from.
func FuzzShardPut(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	m, _, err := core.Partition(mat.RandomCOO(rng, 96, 80, 1500), testCfg())
	if err != nil {
		f.Fatal(err)
	}
	cuts, err := cutShards(m, 2)
	if err != nil || len(cuts) != 2 {
		f.Fatalf("cutShards: %d cuts, %v", len(cuts), err)
	}
	for _, c := range cuts {
		f.Add(c.data)
		f.Add(c.data[:len(c.data)/2])
	}
	f.Add([]byte("ATMAT1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := NewWorker(testCfg())
		url := fmt.Sprintf("/cluster/v1/shards?name=a&gen=1&shard=0&crc=%08x", core.ChecksumBytes(body))
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		alloccheck.Bound(t, len(body), 32, 2<<20, func() {
			w.HandleShardPut(rec, req)
		})
		if rec.Code != http.StatusOK {
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if n := w.Store().Len(); n != 0 {
				t.Fatalf("rejected upload left %d shards in the store", n)
			}
			return
		}
		got, ok := w.Store().matrix(shardRef{
			ShardKey: ShardKey{Name: "a", Gen: 1, Shard: 0},
			CRC:      core.ChecksumBytes(body), Bytes: int64(len(body)),
		})
		if !ok {
			t.Fatal("accepted upload is not in the store")
		}
		back, err := encodeMatrix(got)
		if err != nil {
			t.Fatalf("cannot re-serialize accepted shard: %v", err)
		}
		// The store decodes a stream and ignores what follows its footer.
		if !bytes.HasPrefix(body, back) {
			t.Fatalf("accepted %d bytes that re-serialize to %d different ones", len(body), len(back))
		}
	})
}
