package sketch_test

import (
	"fmt"

	"webcachesim/internal/sketch"
)

// A Bloom filter answers "have I seen this key before?" in constant
// memory: AddIfNew is the one-pass first-occurrence test, and Reset
// starts a fresh observation window.
func ExampleBloom() {
	b, err := sketch.NewBloom(1000, 0.01)
	if err != nil {
		panic(err)
	}
	fmt.Println("first /a:", b.AddIfNew("/a"))
	fmt.Println("second /a:", b.AddIfNew("/a"))
	fmt.Println("contains /a:", b.Contains("/a"))
	b.Reset()
	fmt.Println("after reset contains /a:", b.Contains("/a"))
	// Output:
	// first /a: true
	// second /a: false
	// contains /a: true
	// after reset contains /a: false
}

// SpaceSaving keeps approximate counts for the hottest keys in a bounded
// table; Halve ages them so old popularity decays away.
func ExampleSpaceSaving() {
	ss, err := sketch.NewSpaceSaving(8)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 6; i++ {
		ss.Add("/hot")
	}
	ss.Add("/cold")
	count, ok := ss.Count("/hot")
	fmt.Println("/hot:", count, ok)
	ss.Halve()
	count, ok = ss.Count("/hot")
	fmt.Println("after halve /hot:", count, ok)
	_, ok = ss.Count("/cold")
	fmt.Println("after halve /cold tracked:", ok)
	// Output:
	// /hot: 6 true
	// after halve /hot: 3 true
	// after halve /cold tracked: false
}
