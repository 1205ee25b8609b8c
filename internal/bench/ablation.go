package bench

import (
	"fmt"

	"golapi/internal/ga"
	"golapi/internal/parallel"
)

// Ablations: experiments beyond the paper's figures that isolate the
// design choices DESIGN.md calls out — the §6 vector-ops future work, the
// ≈900-byte AM pipelining chunk (§5.3.1), and the ≈0.5 MB direct-protocol
// switch threshold (§5.4).

// VectorAblationPoint compares GA 2-D transfer bandwidth with the paper's
// AM/hybrid protocols against the §6 strided-vector extension.
type VectorAblationPoint struct {
	Bytes     int
	PutAM     float64 // standard hybrid protocols (the paper's GA)
	PutVector float64 // §6 PutStrided path
	GetAM     float64
	GetVector float64
}

// MeasureVectorAblation sweeps 2-D request sizes under both protocol
// stacks; each (size, op, protocol) cell is an independent simulation
// fanned out on px's workers.
func MeasureVectorAblation(px *parallel.Executor, sizes []int) ([]VectorAblationPoint, error) {
	series := []struct {
		op  string
		vec bool
		out func(*VectorAblationPoint) *float64
	}{
		{"put", false, func(p *VectorAblationPoint) *float64 { return &p.PutAM }},
		{"put", true, func(p *VectorAblationPoint) *float64 { return &p.PutVector }},
		{"get", false, func(p *VectorAblationPoint) *float64 { return &p.GetAM }},
		{"get", true, func(p *VectorAblationPoint) *float64 { return &p.GetVector }},
	}
	points := make([]VectorAblationPoint, len(sizes))
	for i, s := range sizes {
		points[i].Bytes = s
	}
	err := parallel.ForEach(px, len(sizes)*len(series), func(j int) error {
		i, k := j/len(series), j%len(series)
		cfg := ga.DefaultConfig()
		cfg.UseVectorOps = series[k].vec
		bw, err := gaBandwidth("LAPI", cfg, series[k].op, sizes[i], true)
		if err != nil {
			return err
		}
		*series[k].out(&points[i]) = bw
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// ChunkAblationPoint shows GA 2-D put bandwidth as a function of the AM
// pipelining chunk size (§5.3.1's empirically chosen ≈900 bytes).
type ChunkAblationPoint struct {
	ChunkBytes int
	PutMBs     float64
}

// MeasureChunkAblation sweeps the AM chunk size at a fixed 32 KB 2-D
// request, one sweep point per chunk size on px's workers.
func MeasureChunkAblation(px *parallel.Executor, chunks []int) ([]ChunkAblationPoint, error) {
	return parallel.Map(px, len(chunks), func(i int) (ChunkAblationPoint, error) {
		cfg := ga.DefaultConfig()
		cfg.AMChunkBytes = chunks[i]
		bw, err := gaBandwidth("LAPI", cfg, "put", 32768, true)
		return ChunkAblationPoint{ChunkBytes: chunks[i], PutMBs: bw}, err
	})
}

// SwitchAblationPoint shows the effect of the direct-protocol switch
// threshold on a large 2-D get (§5.4's ≈0.5 MB switch).
type SwitchAblationPoint struct {
	ThresholdBytes int
	GetMBs         float64
}

// MeasureSwitchAblation sweeps DirectSwitchBytes at a fixed 512 KB 2-D
// request, one sweep point per threshold on px's workers: thresholds
// above the request size force the AM protocol; thresholds below it use
// per-row direct transfers.
func MeasureSwitchAblation(px *parallel.Executor, thresholds []int) ([]SwitchAblationPoint, error) {
	return parallel.Map(px, len(thresholds), func(i int) (SwitchAblationPoint, error) {
		cfg := ga.DefaultConfig()
		cfg.DirectSwitchBytes = thresholds[i]
		bw, err := gaBandwidth("LAPI", cfg, "get", 512*1024, true)
		return SwitchAblationPoint{ThresholdBytes: thresholds[i], GetMBs: bw}, err
	})
}

// FormatVectorAblation renders the vector-ops comparison.
func FormatVectorAblation(points []VectorAblationPoint) string {
	s := "Ablation: GA 2-D bandwidth, AM/hybrid protocols vs §6 vector ops [MB/s]\n"
	s += fmt.Sprintf("%-10s %10s %10s %10s %10s\n", "bytes", "put-AM", "put-vec", "get-AM", "get-vec")
	for _, p := range points {
		s += fmt.Sprintf("%-10d %10.1f %10.1f %10.1f %10.1f\n", p.Bytes, p.PutAM, p.PutVector, p.GetAM, p.GetVector)
	}
	return s
}

// FormatChunkAblation renders the chunk-size sweep.
func FormatChunkAblation(points []ChunkAblationPoint) string {
	s := "Ablation: AM pipelining chunk size, 32 KB 2-D put [MB/s] (§5.3.1 uses ≈900 B)\n"
	s += fmt.Sprintf("%-12s %10s\n", "chunk[B]", "put")
	for _, p := range points {
		s += fmt.Sprintf("%-12d %10.1f\n", p.ChunkBytes, p.PutMBs)
	}
	return s
}

// FormatSwitchAblation renders the threshold sweep.
func FormatSwitchAblation(points []SwitchAblationPoint) string {
	s := "Ablation: direct-protocol switch threshold, 512 KB 2-D get [MB/s] (§5.4 uses ≈0.5 MB)\n"
	s += fmt.Sprintf("%-12s %10s\n", "threshold", "get")
	for _, p := range points {
		s += fmt.Sprintf("%-12d %10.1f\n", p.ThresholdBytes, p.GetMBs)
	}
	return s
}
