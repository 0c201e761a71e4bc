// Package trace records experiment results in a machine-readable form
// so harness runs can be archived, diffed across code versions, and
// post-processed into plots. Each experiment contributes its typed row
// slice; the report serializes to JSON.
package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// LinkBytes is the stable serialization of the cluster's per-
// interconnect-tier traffic counters; experiment rows embed it so
// archived reports can be diffed on wire traffic, not just time.
type LinkBytes struct {
	IntraNode int64 `json:"intra_node"`
	InterNode int64 `json:"inter_node"`
	Host      int64 `json:"host"`
}

// PhysLinkUtil is the stable serialization of one physical link's
// traffic under a contention topology: the named link (an NVLink port,
// a NIC injection pipe, the fabric trunk), its capacity, the demand
// routed through it, its utilization over the run's makespan
// (bytes / (capacity · makespan)), and the peak number of concurrent
// flows that shared it (1 = never contended).
type PhysLinkUtil struct {
	Name           string  `json:"name"`
	CapacityGBps   float64 `json:"capacity_gbps"`
	Bytes          float64 `json:"bytes"`
	Utilization    float64 `json:"utilization"`
	MaxConcurrency int     `json:"max_concurrency"`
}

// Report accumulates experiment results. Safe for concurrent Add.
type Report struct {
	//gnnvet:allow commitseam — results are filed by experiment id
	mu      sync.Mutex
	Meta    map[string]string `json:"meta"`
	Results map[string]any    `json:"results"`
}

// NewReport returns an empty report with the given metadata (profile,
// seed, git revision — whatever the caller wants recorded).
func NewReport(meta map[string]string) *Report {
	if meta == nil {
		meta = map[string]string{}
	}
	return &Report{Meta: meta, Results: map[string]any{}}
}

// Add records rows under the experiment id, replacing any previous
// entry for the same id.
func (r *Report) Add(id string, rows any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Results[id] = rows
}

// WriteJSON serializes the report with stable formatting.
func (r *Report) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Meta    map[string]string `json:"meta"`
		Results map[string]any    `json:"results"`
	}{r.Meta, r.Results})
}
