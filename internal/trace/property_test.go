package trace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// genSquidRequest draws a request within the Squid text format's value
// space: single-token strings, non-negative sizes.
func genSquidRequest(rng *rand.Rand) *Request {
	token := func(prefix string) string {
		const chars = "abcdefghijklmnopqrstuvwxyz0123456789./-_"
		n := 1 + rng.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return prefix + string(b)
	}
	return &Request{
		UnixMillis:   rng.Int63n(2_000_000_000_000),
		URL:          token("http://h/"),
		Status:       100 + rng.Intn(500),
		TransferSize: rng.Int63n(1 << 32),
		ContentType:  token(""),
		Client:       token(""),
		Method:       "GET",
	}
}

// TestSquidRoundTripProperty: requests within the text format's value
// space survive the Squid codec (timestamps to millisecond resolution;
// DocSize and Class are not representable and excluded).
func TestSquidRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 100; trial++ {
		src := genSquidRequest(rng)
		var sb strings.Builder
		w := NewSquidWriter(&sb)
		if err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ParseSquidLine(strings.TrimSpace(sb.String()))
		if err != nil {
			t.Fatalf("trial %d: %v (line %q)", trial, err, sb.String())
		}
		if got.URL != src.URL || got.Status != src.Status ||
			got.TransferSize != src.TransferSize ||
			got.UnixMillis != src.UnixMillis ||
			got.ContentType != src.ContentType || got.Client != src.Client {
			t.Fatalf("trial %d:\n got %+v\nwant %+v", trial, got, src)
		}
	}
}

// TestSquidReaderNeverPanicsOnGarbage: arbitrary input must produce
// records, parse errors, or EOF — never a panic or infinite loop.
func TestSquidReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(input string) bool {
		r := NewSquidReader(strings.NewReader(input))
		for i := 0; i < 1000; i++ {
			_, err := r.Next()
			if err != nil {
				return true // parse error or EOF both fine
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
