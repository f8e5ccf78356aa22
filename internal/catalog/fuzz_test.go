package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"atmatrix/internal/alloccheck"
)

// FuzzReadManifest checks the durable manifest reader — the first bytes a
// restarting server trusts — against arbitrary input: never a panic, heap
// bytes ≤ 512·len(input) + 64 KiB (the smallest entry, "{},", costs one
// 136-byte manifestEntry in a slice whose every growth step is charged:
// ≈ 190× measured on 300 000 of them), and whatever it accepts is
// stable under its own writer: encode(decode(x)) decodes to the same bytes
// again, and a manifest the real writer produced comes back verbatim.
func FuzzReadManifest(f *testing.F) {
	c, err := Open(testConfig(), 0, f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Put("a", testMatrix(f, 1, 64, 600), true); err != nil {
		f.Fatal(err)
	}
	if err := c.Put("b/with spaces", testMatrix(f, 2, 64, 900), false); err != nil {
		f.Fatal(err)
	}
	if err := c.SetShardMap("a", &ShardMap{Generation: 7, Replication: 2, Shards: []ShardMeta{
		{ID: 0, Bands: []int{0, 2}, CRC32C: 0xdeadbeef, Bytes: 1234, Primary: "w1:1", Replicas: []string{"w1:1", "w2:1"}},
		{ID: 1, Bands: []int{1}, CRC32C: 1, Bytes: 99, Primary: "w2:1", Replicas: []string{"w2:1", "w1:1"}},
	}}); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(c.dataDir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	mf, err := decodeManifest(written)
	if err != nil || len(mf.Entries) != 2 || mf.Entries[0].Shards == nil {
		f.Fatalf("seed manifest: %+v, %v", mf, err)
	}
	if again, _ := encodeManifest(mf); !bytes.Equal(again, written) {
		f.Fatalf("a written manifest does not re-serialize to itself:\n%s\n--- vs ---\n%s", again, written)
	}
	f.Add(written)
	f.Add(written[:len(written)/2])
	f.Add([]byte(`{"version":1,"entries":[{},{},{}]}`))
	f.Add([]byte(`{"entries":[{"rows":1e999}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		var mf manifestFile
		var err error
		alloccheck.Bound(t, len(input), 512, 64<<10, func() {
			mf, err = decodeManifest(input)
		})
		if err != nil {
			return
		}
		canon, err := encodeManifest(mf)
		if err != nil {
			t.Fatalf("cannot re-serialize accepted manifest: %v", err)
		}
		back, err := decodeManifest(canon)
		if err != nil {
			t.Fatalf("cannot re-read own manifest: %v\n%s", err, canon)
		}
		if again, _ := encodeManifest(back); !bytes.Equal(again, canon) {
			t.Fatalf("manifest is not stable under its own writer:\n%s\n--- vs ---\n%s", canon, again)
		}
	})
}
