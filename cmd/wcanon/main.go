// Command wcanon sanitizes a proxy trace the way NLANR published theirs:
// URLs and client identifiers are replaced by stable hashes, while
// everything the cache study needs — timestamps, sizes, status codes,
// content types, and the URL *extension* (which drives document
// classification when no content type is recorded) — is preserved. The
// same input URL always maps to the same token, so hit/miss behaviour and
// every workload statistic survive sanitization.
//
// Usage:
//
//	wcanon -i access.log[.gz] -o anon.log[.gz] [-salt secret]
//	       [-keep-host] [-passthrough]
//
// The output path names the format: .wci, .wct or .bin is interned binary
// (WCT2), .wci3 a WCT3 columnar workload, anything else a Squid log. A
// .wci3 holds the trace in its final simulation form (cacheability
// filter, interned IDs, per-document size history) as mmap-able
// fixed-width columns, so wcsim replays it with zero parse or build cost.
// Pass -passthrough to skip the anonymizing rewrite when the input is
// already sanitized.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wcanon:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wcanon", flag.ContinueOnError)
	var (
		inPath   = fs.String("i", "", "input trace path")
		outPath  = fs.String("o", "", "output trace path")
		salt     = fs.String("salt", "", "hash salt (vary it so mappings cannot be joined across traces)")
		keepHost = fs.Bool("keep-host", false, "preserve the URL host, hashing only the path")
		passthru = fs.Bool("passthrough", false, "skip the anonymizing rewrite (input is already sanitized); format conversion only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" || *outPath == "" {
		return fmt.Errorf("-i and -o are required")
	}
	r, err := trace.OpenFile(*inPath, trace.FormatAuto)
	if err != nil {
		return err
	}
	defer func() {
		_ = r.Close()
	}()

	anon := newAnonymizer(*salt, *keepHost)
	if strings.HasSuffix(*outPath, ".wci3") {
		return writeColumnar(out, r, anon, *passthru, *inPath, *outPath)
	}
	w, err := trace.CreateFile(*outPath, trace.FormatAuto)
	if err != nil {
		return err
	}
	var n, malformed int64
	for {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var pe *trace.ParseError
			if errors.As(err, &pe) {
				malformed++ // skip malformed lines, like the preprocessing does
				continue
			}
			_ = w.Close()
			return err
		}
		if !*passthru {
			anon.scrub(req)
		}
		if err := w.Write(req); err != nil {
			_ = w.Close()
			return err
		}
		n++
	}
	if err := w.Close(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s: no requests parsed (%d malformed lines)", *inPath, malformed)
	}
	fmt.Fprintf(out, "anonymized %d requests (%d distinct URLs) into %s\n",
		n, len(anon.urls), *outPath)
	return nil
}

// writeColumnar preprocesses the input into a simulation-ready Workload
// (running the cacheability filter, exactly like wcsim's load path) and
// writes it as a WCT3 columnar file. Malformed lines are skipped and,
// unless passthrough is set, each request is scrubbed first so the
// emitted string table carries only anonymized URLs.
func writeColumnar(out io.Writer, r trace.Reader, anon *anonymizer, passthrough bool, inPath, outPath string) error {
	filter := trace.NewFilterReader(&scrubReader{r: r, anon: anon, passthrough: passthrough})
	w, err := core.BuildWorkload(filter, 0)
	if err != nil {
		return err
	}
	if filter.Stats().Parsed() == 0 {
		return fmt.Errorf("%s: no requests parsed (%d malformed lines)", inPath, filter.Stats().Malformed)
	}
	if err := w.WriteColumnar(outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote columnar workload: %d requests (%d distinct documents) into %s\n",
		w.NumRequests(), w.NumDocs(), outPath)
	return nil
}

// scrubReader adapts the record stream for workload building: requests
// are anonymized in flight unless passthrough is set. Parse errors pass
// through for the filter above to skip and count.
type scrubReader struct {
	r           trace.Reader
	anon        *anonymizer
	passthrough bool
}

func (s *scrubReader) Next() (*trace.Request, error) {
	req, err := s.r.Next()
	if err != nil {
		return nil, err
	}
	if !s.passthrough {
		s.anon.scrub(req)
	}
	return req, nil
}

// anonymizer rewrites identifying fields with stable tokens.
type anonymizer struct {
	salt     string
	keepHost bool
	urls     map[string]string
	clients  map[string]string
}

func newAnonymizer(salt string, keepHost bool) *anonymizer {
	return &anonymizer{
		salt:     salt,
		keepHost: keepHost,
		urls:     make(map[string]string, 1024),
		clients:  make(map[string]string, 64),
	}
}

func (a *anonymizer) scrub(req *trace.Request) {
	// Resolve the class before the URL is destroyed, so classification
	// survives even for content-type-less records.
	req.Class = req.Classify()
	req.URL = a.anonURL(req.URL)
	if req.Client != "" && req.Client != "-" {
		req.Client = a.anonClient(req.Client)
	}
}

func (a *anonymizer) anonURL(url string) string {
	if tok, ok := a.urls[url]; ok {
		return tok
	}
	host := "anon.invalid"
	if a.keepHost {
		if h := hostOf(url); h != "" {
			host = h
		}
	}
	tok := "http://" + host + "/d" + hashToken(a.salt+url)
	if ext := doctype.ExtensionOf(url); ext != "" {
		tok += "." + ext
	}
	a.urls[strings.Clone(url)] = tok // url aliases the reader's block
	return tok
}

func (a *anonymizer) anonClient(client string) string {
	if tok, ok := a.clients[client]; ok {
		return tok
	}
	tok := "c" + hashToken(a.salt+"|client|"+client)
	a.clients[strings.Clone(client)] = tok
	return tok
}

func hostOf(url string) string {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(url, "https://")
	}
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// hashToken renders a 64-bit FNV-1a hash as fixed-width hex.
func hashToken(s string) string {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return strconv.FormatUint(h, 16)
}
