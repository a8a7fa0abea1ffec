package trace_test

import (
	"fmt"

	"webcachesim/internal/trace"
)

// ExampleParseSquidLine decodes one Squid native access-log line.
func ExampleParseSquidLine() {
	line := `982347195.744 110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif`
	req, err := trace.ParseSquidLine(line)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(req.URL, req.Status, req.TransferSize, req.Classify())
	// Output: http://e.com/a.gif 200 4512 Images
}

// ExampleFilterReader applies the paper's preprocessing: dynamic URLs,
// non-cacheable statuses, and non-GET methods are dropped.
func ExampleFilterReader() {
	reqs := []*trace.Request{
		{URL: "http://e.com/a.gif", Status: 200},
		{URL: "http://e.com/cgi-bin/x", Status: 200},
		{URL: "http://e.com/b.html?q=1", Status: 200},
		{URL: "http://e.com/c.html", Status: 404},
	}
	f := trace.NewFilterReader(trace.NewSliceReader(reqs))
	kept, err := trace.ReadAll(f)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("kept:", len(kept), "dropped:", f.Stats().Dropped())
	// Output: kept: 1 dropped: 3
}
