package policy

import "math"

// CostModel maps a document size to the retrieval cost c(p) that the
// value-based schemes (GDS, GD*) charge for a miss. Section 3 of the paper
// introduces two models.
type CostModel interface {
	// Cost returns c(p) for a document of the given size in bytes.
	Cost(size int64) float64
	// Tag returns the short label the paper uses in scheme names:
	// "1" for constant cost, "P" for packet cost.
	Tag() string
}

// ConstantCost is the constant cost model: every retrieval costs 1. With
// it, GDS and GD* optimize the hit rate — the model of choice for
// institutional proxies that aim at reducing end-user latency.
type ConstantCost struct{}

var _ CostModel = ConstantCost{}

// Cost implements CostModel.
func (ConstantCost) Cost(int64) float64 { return 1 }

// Tag implements CostModel.
func (ConstantCost) Tag() string { return "1" }

// packetPayload is the TCP payload size the paper's packet cost model
// assumes per packet: c(p) = 2 + s(p)/536. 536 bytes is the default TCP
// maximum segment size (RFC 879) net of headers.
const packetPayload = 536

// PacketCost is the packet cost model: the retrieval cost is the number of
// TCP packets needed to transmit the document, c(p) = 2 + ⌈s(p)/536⌉.
// With it, GDS and GD* optimize the byte hit rate — the model of choice
// for backbone proxies that aim at reducing network traffic.
type PacketCost struct{}

var _ CostModel = PacketCost{}

// Cost implements CostModel.
func (PacketCost) Cost(size int64) float64 {
	if size < 0 {
		size = 0
	}
	return 2 + math.Ceil(float64(size)/packetPayload)
}

// Tag implements CostModel.
func (PacketCost) Tag() string { return "P" }
