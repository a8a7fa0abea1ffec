package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"webcachesim/internal/trace"
)

// TestStreamPinned pins the exact stream of three configurations: a
// SHA-256 over every field of every request, read through Generate and
// through Next. Any change to the RNG draws, their order or the float
// operations on them moves a hash, which only a few small goldens
// elsewhere would otherwise notice. The hashes were recorded before
// requests came from slabs; a change that moves the stream on purpose
// records new ones here.
func TestStreamPinned(t *testing.T) {
	diurnal := DFNProfile()
	diurnal.DiurnalAmplitude = 0.8
	diurnal.MeanInterArrivalMillis = 2000
	for _, tc := range []struct {
		name string
		prof *Profile
		opts Options
		want string
	}{
		// The benchmark's population: bench/input.go draws it.
		{"dfn-seed14", DFNProfile(), Options{Seed: 14, Requests: 300_000},
			"13b852b4f946097fb59c3ee1830e7f5262ea69abf58795b265ad59674b11b3bf"},
		{"rtp-clients64", RTPProfile(), Options{Seed: 2, Requests: 50_000, Clients: 64},
			"c59d728da1db562f0db9ee690a3c67fdd4d0c22b39ffdfb6ca49efcf99fbd012"},
		{"dfn-diurnal", diurnal, Options{Seed: 8, Requests: 43_000},
			"b998fa40526c83da929e95a7185dc5ab7c6484e2f5a3af74a7d1307b346344f4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs, err := Generate(tc.prof, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			d := newStreamDigest()
			for _, r := range reqs {
				d.add(r)
			}
			if got := d.sum(); got != tc.want {
				t.Errorf("Generate: %d requests hash to %s, want %s", len(reqs), got, tc.want)
			}

			g, err := NewGenerator(tc.prof, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			d = newStreamDigest()
			n := 0
			for {
				r, err := g.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				d.add(r)
				n++
			}
			if got := d.sum(); got != tc.want {
				t.Errorf("Next: %d requests hash to %s, want %s", n, got, tc.want)
			}
		})
	}
}

// streamDigest hashes requests field by field; strings are length
// prefixed so that no two streams share an encoding.
type streamDigest struct {
	h   hash.Hash
	buf []byte
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) add(r *trace.Request) {
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(r.UnixMillis))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Status))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.TransferSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.DocSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Class))
	for _, s := range []string{r.URL, r.ContentType, r.Client, r.Method} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	d.h.Write(b)
	d.buf = b
}

func (d *streamDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
