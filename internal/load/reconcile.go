package load

import (
	"fmt"
	"net/http"

	"webcachesim/internal/cluster"
	"webcachesim/internal/metrics"
)

// ScrapeMetrics fetches a /metrics exposition and returns its samples as
// series → value (see metrics.ParseText for the keys).
func ScrapeMetrics(adminURL string) (map[string]float64, error) {
	resp, err := http.Get(adminURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("load: scraping %s: %w", adminURL, err)
	}
	defer func() {
		// ParseText drains the body; closing can add nothing.
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: scraping %s: status %d", adminURL, resp.StatusCode)
	}
	m, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("load: scraping %s: %w", adminURL, err)
	}
	return m, nil
}

// ScrapeTopology scrapes every node of the topology, returning node name
// → metrics. A node without an admin URL is an error: a fleet-wide ledger
// with a node missing reconciles nothing.
func ScrapeTopology(topo *cluster.Topology) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64, len(topo.Nodes))
	for _, n := range topo.Nodes {
		if n.Admin == "" {
			return nil, fmt.Errorf("load: node %q has no admin URL to scrape", n.Name)
		}
		m, err := ScrapeMetrics(n.Admin)
		if err != nil {
			return nil, fmt.Errorf("load: node %q: %w", n.Name, err)
		}
		out[n.Name] = m
	}
	return out, nil
}

// DiffMetrics subtracts one per-node scrape from another, series by
// series: the counter traffic between two ScrapeTopology calls. Series
// or nodes absent from before count from zero. Reconciliation needs
// this on any fleet that served traffic before the measured run —
// warm-up requests, health probes, a previous replay — because the
// identities relate one run's client tallies to the counters that run
// added, not to process-lifetime totals.
func DiffMetrics(after, before map[string]map[string]float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(after))
	for node, m := range after {
		prev := before[node]
		d := make(map[string]float64, len(m))
		for k, v := range m {
			d[k] = v - prev[k]
		}
		out[node] = d
	}
	return out
}

// Reconcile checks a load report against the per-node /metrics scrapes,
// counter for counter, and returns the first broken identity. The scrapes
// must reflect exactly the report's traffic: on a fleet that has served
// anything else, scrape before and after the run and pass the DiffMetrics
// of the two. The identities hold for a stable ring whatever the
// concurrency, and for a single proxy as the fleet of one:
//
//   - each node's client tally partitions: requests = hits + peer hits +
//     misses;
//   - each node's server counters partition the same way;
//   - each node served wcload exactly the peer hits wcload observed
//     (only client-facing responses carry PEER-HIT — forwarded requests
//     are loop-guarded to local service);
//   - fleet-wide, the servers' request total exceeds the clients' by
//     exactly the successful peer fetches: every forwarded request was
//     served once at its owner, and failed peer fetches never arrived.
func Reconcile(rep *Report, perNode map[string]map[string]float64) error {
	var sumServerReqs, sumClientReqs, sumPeerFetches, sumPeerErrors float64
	for _, nr := range rep.Nodes {
		t := nr.Tally
		if t.Requests != t.Hits+t.PeerHits+t.Misses {
			return fmt.Errorf("load: node %s client tally does not partition: %+v", nr.Name, t)
		}
		m, ok := perNode[nr.Name]
		if !ok {
			return fmt.Errorf("load: node %s has no scraped metrics", nr.Name)
		}
		if m["wcproxy_requests_total"] != m["wcproxy_hits_total"]+m["wcproxy_peer_hits_total"]+m["wcproxy_misses_total"] {
			return fmt.Errorf("load: node %s server counters do not partition: requests=%v hits=%v peerHits=%v misses=%v",
				nr.Name, m["wcproxy_requests_total"], m["wcproxy_hits_total"],
				m["wcproxy_peer_hits_total"], m["wcproxy_misses_total"])
		}
		if got, want := m["wcproxy_peer_hits_total"], float64(t.PeerHits); got != want {
			return fmt.Errorf("load: node %s wcproxy_peer_hits_total = %v, client counted %v", nr.Name, got, want)
		}
		sumServerReqs += m["wcproxy_requests_total"]
		sumClientReqs += float64(t.Requests)
		sumPeerFetches += m["wcproxy_peer_fetches_total"]
		sumPeerErrors += m["wcproxy_peer_errors_total"]
	}
	if got, want := sumServerReqs, sumClientReqs+sumPeerFetches-sumPeerErrors; got != want {
		return fmt.Errorf("load: fleet requests do not reconcile: servers saw %v, clients sent %v + %v peer fetches - %v peer errors = %v",
			got, sumClientReqs, sumPeerFetches, sumPeerErrors, want)
	}
	return nil
}
