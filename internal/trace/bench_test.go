package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func benchRequests(n int) []*Request {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]*Request, n)
	t := int64(1_000_000_000_000)
	for i := range reqs {
		t += int64(rng.Intn(1000))
		size := int64(100 + rng.Intn(100_000))
		reqs[i] = &Request{
			UnixMillis:   t,
			URL:          fmt.Sprintf("http://bench.example/dir/doc%d.gif", rng.Intn(10_000)),
			Status:       200,
			TransferSize: size,
			DocSize:      size,
			ContentType:  "image/gif",
			Client:       "10.0.0.1",
			Method:       "GET",
		}
	}
	return reqs
}

func BenchmarkSquidWrite(b *testing.B) {
	reqs := benchRequests(1000)
	var buf bytes.Buffer
	w := NewSquidWriter(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			buf.Reset()
		}
	}
}

func BenchmarkSquidRead(b *testing.B) {
	reqs := benchRequests(1000)
	var buf bytes.Buffer
	w := NewSquidWriter(&buf)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.String()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewSquidReader(strings.NewReader(data))
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			if err == io.EOF {
				r = NewSquidReader(strings.NewReader(data))
				continue
			}
			b.Fatal(err)
		}
	}
}
