package cluster

import (
	"bytes"
	"encoding/binary"
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
// operand bytes, with the CRC query parameter read from the body's last
// four bytes, where a stream's footer is, so a well-formed body passes the
// fingerprint gate. Never a panic; heap bytes ≤ 32·len(body) + 2 MiB (the
// body slurped by io.ReadAll, then the codec decoder's bound); a rejected
// upload leaves the store empty, and an accepted one holds a matrix that
// re-serializes to the body it came from.
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
		var crc uint32
		if len(body) >= 4 {
			crc = binary.LittleEndian.Uint32(body[len(body)-4:])
		}
		url := fmt.Sprintf("/cluster/v1/shards?name=a&gen=1&shard=0&crc=%08x", crc)
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
			CRC:      crc, Bytes: int64(len(body)),
		})
		if !ok {
			t.Fatal("accepted upload is not in the store")
		}
		var back bytes.Buffer
		if _, err := got.WriteTo(&back); err != nil {
			t.Fatalf("cannot re-serialize accepted shard: %v", err)
		}
		// The store decodes a stream and ignores what follows its footer.
		if !bytes.HasPrefix(body, back.Bytes()) {
			t.Fatalf("accepted %d bytes that re-serialize to %d different ones", len(body), back.Len())
		}
	})
}
