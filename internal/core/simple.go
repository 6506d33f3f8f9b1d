package core

import (
	"ladder/internal/bits"
	"ladder/internal/compress"
)

// simpleScheme covers every policy that needs no controller-side metadata
// state: the pessimistic baseline, the location-aware and Oracle
// idealizations of Figure 2, the Split-reset prior work (compression +
// half-RESET phases) and the BLP prior work (bitline profiling circuitry
// in the memory device, hence free content knowledge).
type simpleScheme struct {
	env     *Env
	name    string
	latency func(*Env, *WriteRequest) float64
}

// NewBaseline returns the baseline scheme: every write uses the
// pessimistic fixed worst-case RESET latency.
func NewBaseline(env *Env) Scheme {
	return &simpleScheme{env: env, name: "baseline", latency: func(e *Env, _ *WriteRequest) float64 {
		return e.Tables.WorstNs
	}}
}

// NewLocationAware returns the idealized location-only scheme of Figure 2:
// latency keyed on (WL, BL) with worst-case content assumed.
func NewLocationAware(env *Env) Scheme {
	return &simpleScheme{env: env, name: "location-aware", latency: func(e *Env, req *WriteRequest) float64 {
		return e.Tables.WL.LocationOnly(req.Loc.WL, req.Loc.BLHigh)
	}}
}

// NewOracle returns the Oracle scheme: the controller magically knows the
// exact worst-wordline LRS count, bounding what any realizable
// content-aware mechanism can achieve.
func NewOracle(env *Env) Scheme {
	return &simpleScheme{env: env, name: "Oracle", latency: func(e *Env, req *WriteRequest) float64 {
		c, err := e.Store.MaxRowCounter(req.Line)
		if err != nil {
			return e.Tables.WorstNs
		}
		req.Clrs = c
		return e.Tables.WL.Lookup(req.Loc.WL, req.Loc.BLHigh, c)
	}}
}

// NewSplitReset returns the Split-reset scheme (Xu et al., HPCA 2015):
// each RESET phase writes at most 4 bits per mat. FPC-compressible lines
// fit in half the bitlines and finish in one phase; others take two
// sequential phases. Content is unknown, so each phase uses the
// location-dependent worst-content latency of the 4-cell table.
func NewSplitReset(env *Env) Scheme {
	return &simpleScheme{env: env, name: "Split-reset", latency: func(e *Env, req *WriteRequest) float64 {
		phase := e.Tables.Half.LocationOnly(req.Loc.WL, req.Loc.BLHigh)
		if compress.Compressible(req.Payload[:]) {
			return phase
		}
		return 2 * phase
	}}
}

// NewBLP returns the bitline-profiling scheme (Wen et al., TCAD 2019):
// profiling circuitry embedded in the memory tracks per-bitline data
// patterns, free of metadata traffic but requiring ReRAM chip changes —
// the cost LADDER avoids. Following the original proposal, writes are
// classified into a fast and a slow speed grade: when every selected
// bitline's LRS count is at or below the half-full threshold, the write
// uses the latency that is safe for that threshold; otherwise it falls
// back to the worst case. (LADDER's contribution is precisely the finer,
// 8-level content model.) The profiling readout needs the store's
// per-bitline LRS tracking, so building the scheme switches it on.
func NewBLP(env *Env) Scheme {
	env.Store.SetColumnTracking(true)
	return &simpleScheme{env: env, name: "BLP", latency: func(e *Env, req *WriteRequest) float64 {
		c, err := e.Store.MaxSelectedColCount(req.Line)
		if err != nil {
			return e.Tables.WorstNs
		}
		// The fast grade must be safe for any pattern up to the
		// classification threshold (3/4 full): profiling counts have to
		// cover writes queued behind them, so the published design keeps
		// the fast grade conservative.
		threshold := e.Geom.MatRows * 3 / 4
		if c <= threshold {
			return e.Tables.BL.Lookup(req.Loc.WL, req.Loc.BLHigh, threshold)
		}
		return e.Tables.BL.LocationOnly(req.Loc.WL, req.Loc.BLHigh)
	}}
}

func (s *simpleScheme) Name() string { return s.name }

func (s *simpleScheme) Enqueue(req *WriteRequest) ([]AuxRead, []MetaWriteback) {
	req.Payload = req.Data
	return nil, nil
}

func (s *simpleScheme) SMBArrived(*WriteRequest, bits.Line) {}

func (s *simpleScheme) MetaArrived(uint64) {}

func (s *simpleScheme) RetrySpill() ([]AuxRead, []MetaWriteback) { return nil, nil }

func (s *simpleScheme) Ready(*WriteRequest) bool { return true }

func (s *simpleScheme) Latency(req *WriteRequest) float64 { return s.latency(s.env, req) }

func (s *simpleScheme) Complete(*WriteRequest, bits.Line, bits.Line) []MetaWriteback { return nil }

func (s *simpleScheme) DecodeRead(_ uint64, payload bits.Line) bits.Line { return payload }

func (s *simpleScheme) UseConstrainedFNW() bool { return false }
