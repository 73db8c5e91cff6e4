package harness

import (
	"encoding/json"
	"io"

	"sforder/internal/engine"
)

// Report bundles every regenerated artifact for machine consumption
// (the cmd/sforder -json flag).
type Report struct {
	// Env describes the measurement environment.
	Env Env `json:"env"`
	// One field per artifact; nil slices mean "not measured".
	Fig3     []Fig3Row     `json:"fig3,omitempty"`
	Fig4     []Fig4Row     `json:"fig4,omitempty"`
	Fig5     []Fig5Row     `json:"fig5,omitempty"`
	Ablation []AblationRow `json:"ablation,omitempty"`
}

// Env captures the run conditions a reader needs to interpret numbers.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Repeats    int    `json:"repeats"`
	Scale      string `json:"scale"`
}

// WriteJSON renders the report with stable formatting.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MarshalJSON flattens Fig4Row's cell map deterministically.
func (r Fig4Row) MarshalJSON() ([]byte, error) {
	type cellOut struct {
		Config   string  `json:"config"`
		Seconds  float64 `json:"seconds"`
		Overhead float64 `json:"overhead,omitempty"`
		Scale    float64 `json:"scale,omitempty"`
	}
	out := struct {
		Bench   string    `json:"bench"`
		Workers int       `json:"workers"`
		BaseT1  float64   `json:"base_t1_seconds"`
		BaseTP  Fig4Cell  `json:"base_tp"`
		Cells   []cellOut `json:"cells"`
	}{Bench: r.Bench, Workers: r.Workers, BaseT1: r.BaseT1, BaseTP: r.BaseTP}
	for _, level := range fig4Levels {
		for _, det := range []engine.Detector{engine.MultiBags, engine.FOrder, engine.SFOrder} {
			for _, tp := range []bool{false, true} {
				if det == engine.MultiBags && tp {
					continue
				}
				k := key(det, level, tp)
				c, ok := r.ByConfig[k]
				if !ok {
					continue
				}
				out.Cells = append(out.Cells, cellOut{
					Config:   k,
					Seconds:  c.Seconds,
					Overhead: c.Overhead,
					Scale:    c.Scale,
				})
			}
		}
	}
	return json.Marshal(out)
}
