package policy_test

import (
	"fmt"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
)

// ExampleParseSpec shows the scheme-specification grammar.
func ExampleParseSpec() {
	for _, s := range []string{"lru", "gds:packet", "gdstar:1", "typeaware+gdsf:p"} {
		spec, err := policy.ParseSpec(s)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		f, err := policy.NewFactory(spec)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Println(f.Name)
	}
	// Output:
	// LRU
	// GDS(P)
	// GD*(1)
	// TA[GDSF(P)]
}

// ExamplePolicy drives GDS through the Policy lifecycle: under constant
// cost it values documents at 1/size, so the large document is the first
// victim.
func ExamplePolicy() {
	p := policy.NewGDS(policy.ConstantCost{})
	small := &policy.Doc{Key: "logo.gif", Size: 4 << 10, Class: doctype.Image}
	large := &policy.Doc{Key: "talk.mp3", Size: 4 << 20, Class: doctype.MultiMedia}
	p.Insert(small)
	p.Insert(large)
	p.Hit(small)

	victim, _ := p.Evict()
	fmt.Println("evicted:", victim.Key)
	fmt.Println("tracked:", p.Len())
	// Output:
	// evicted: talk.mp3
	// tracked: 1
}

// ExamplePacketCost shows the paper's packet cost model,
// c(p) = 2 + ⌈s(p)/536⌉.
func ExamplePacketCost() {
	var c policy.PacketCost
	fmt.Println(c.Cost(0), c.Cost(536), c.Cost(10_000))
	// Output: 2 3 21
}
