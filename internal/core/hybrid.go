package core

import (
	"ladder/internal/bits"
	"ladder/internal/reram"
)

// Hybrid is the LADDER-Hybrid scheme (Section 4.2): multi-granularity
// counters. Wordline groups whose crossbar row sits near the write driver
// (low IR drop, hence latency-insensitive to content) keep only two 1-bit
// partial counters per block; four such pages share one metadata block,
// improving metadata locality and cutting maintenance traffic. Remaining
// rows use the Est layout. An 8-bit precision control register (modeled
// by Layout.LowPrecisionRows) selects the low-precision region.
type Hybrid struct {
	*ladderBase
	shifting bool
}

// NewHybridCache builds the scheme with an explicit cache configuration
// (cache-size ablations).
func NewHybridCache(env *Env, cacheCfg MetaCacheConfig) (*Hybrid, error) {
	b, err := newLadderBase(env, cacheCfg)
	if err != nil {
		return nil, err
	}
	// Boot-time metadata: Est layout for high rows; packed 1-bit counters
	// for the four pages sharing a low-precision line.
	layout := NewLayout(env.Geom)
	b.cache.SetInitializer(func(key uint64) MetaLine {
		return hybridInitLine(env, layout, key)
	})
	// Hybrid always shifts.
	useShiftedDatapath(env)
	return &Hybrid{ladderBase: b, shifting: true}, nil
}

// hybridInitLine synthesizes a Hybrid-layout metadata line from stored
// content: Est layout for high-precision keys, packed 1-bit counters of
// the four covered pages for low-precision keys. Used at boot-time
// initialization and to reconcile after a verify failure.
func hybridInitLine(env *Env, layout Layout, key uint64) MetaLine {
	if key&hybridLowKeyBit == 0 {
		return estInitLine(env, key)
	}
	var ml MetaLine
	for q, base := range layout.LowGroupLines(key) {
		if base >= env.Geom.Lines() {
			continue
		}
		if err := env.Store.EnsureRow(base); err != nil {
			return ml
		}
		for slot := 0; slot < reram.BlocksPerRow; slot++ {
			stored, err := env.Store.Read(base + uint64(slot))
			if err != nil {
				return ml
			}
			bi, sh := lowSlotBits(q, slot)
			ml[bi] |= (bits.EncodeLowPrecision(&stored) & 3) << sh
		}
	}
	return ml
}

// Name implements Scheme.
func (s *Hybrid) Name() string { return "LADDER-Hybrid" }

// SetLowPrecisionRows overrides the precision control register (the
// number of driver-near rows using 1-bit counters).
func (s *Hybrid) SetLowPrecisionRows(n int) { s.layout.LowPrecisionRows = n }

func (s *Hybrid) keys(req *WriteRequest) []uint64 {
	key, _ := s.layout.HybridKey(req.Line, s.env.Geom.GlobalRow(req.Loc), req.Loc.WL)
	// See Est.keys: reuse the request's MetaKeys backing.
	return append(req.MetaKeys[:0], key)
}

func (s *Hybrid) lowPrecision(req *WriteRequest) bool {
	return req.Loc.WL < s.layout.LowPrecisionRows
}

// Enqueue implements Scheme.
func (s *Hybrid) Enqueue(req *WriteRequest) ([]AuxRead, []MetaWriteback) {
	req.Payload = payloadFor(req.Data, req.Loc.Slot, s.shifting)
	if s.lowPrecision(req) {
		req.Partial = bits.EncodeLowPrecision(&req.Payload)
	} else {
		req.Partial = bits.EncodePartial(&req.Payload)
	}
	return s.acquire(req, s.keys(req))
}

// SMBArrived implements Scheme (Hybrid never requests SMBs).
func (s *Hybrid) SMBArrived(*WriteRequest, bits.Line) {}

// MetaArrived implements Scheme.
func (s *Hybrid) MetaArrived(key uint64) { s.metaArrived(key) }

// RetrySpill implements Scheme.
func (s *Hybrid) RetrySpill() ([]AuxRead, []MetaWriteback) { return s.retrySpill(s.keys) }

// Ready implements Scheme.
func (s *Hybrid) Ready(req *WriteRequest) bool { return !req.WaitMeta }

// lowSlotBits locates a block's 2-bit low-precision counter within the
// shared metadata line: quarter q (the page's position in its group of
// four) spans bytes [16q, 16q+16), two bits per block.
func lowSlotBits(quarter, slot int) (byteIdx int, shift uint) {
	bit := quarter*128 + slot*2
	return bit / 8, uint(bit % 8)
}

// estimate derives the C^w_lrs bound for the request's wordline group.
func (s *Hybrid) estimate(req *WriteRequest) (int, bool) {
	line := s.cache.Data(req.MetaKeys[0])
	if line == nil {
		return 0, false
	}
	if !s.lowPrecision(req) {
		var packed [reram.BlocksPerRow]uint8
		copy(packed[:], line[:])
		packed[req.Loc.Slot] = req.Partial
		return bits.EstimateCwLRS(packed[:]), true
	}
	quarter := s.layout.LowGroupIndex(req.Line)
	var packed [reram.BlocksPerRow]uint8
	for slot := 0; slot < reram.BlocksPerRow; slot++ {
		b, sh := lowSlotBits(quarter, slot)
		packed[slot] = (line[b] >> sh) & 3
	}
	packed[req.Loc.Slot] = req.Partial
	return bits.EstimateCwLRSLow(packed[:]), true
}

// Latency implements Scheme.
func (s *Hybrid) Latency(req *WriteRequest) float64 {
	c, ok := s.estimate(req)
	if !ok {
		return s.env.Tables.WorstNs
	}
	s.recordCounterDiff(req, c, s.shifting)
	req.Clrs = c
	return s.env.Tables.WL.Lookup(req.Loc.WL, req.Loc.BLHigh, c)
}

// Complete implements Scheme.
func (s *Hybrid) Complete(req *WriteRequest, old, stored bits.Line) []MetaWriteback {
	if line := s.cache.Data(req.MetaKeys[0]); line != nil {
		if s.lowPrecision(req) {
			quarter := s.layout.LowGroupIndex(req.Line)
			b, sh := lowSlotBits(quarter, req.Loc.Slot)
			line[b] = line[b]&^(3<<sh) | (req.Partial&3)<<sh
		} else {
			line[req.Loc.Slot] = req.Partial
		}
		s.cache.MarkDirty(req.MetaKeys[0])
	}
	s.release(req)
	return nil
}

// DecodeRead implements Scheme.
func (s *Hybrid) DecodeRead(line uint64, payload bits.Line) bits.Line {
	if !s.shifting {
		return payload
	}
	loc, err := s.env.Geom.Decode(line)
	if err != nil {
		return payload
	}
	return bits.Unshifted(payload, loc.Slot)
}

// UseConstrainedFNW implements Scheme.
func (s *Hybrid) UseConstrainedFNW() bool { return true }

// CrashRecover implements CrashRecoverable.
func (s *Hybrid) CrashRecover() { s.crashRecover() }

// WriteRetry implements RetryAware: as with Est, a verify failure means
// the cached counters mis-margined the row, so the metadata line is
// re-synthesized from stored content at whichever precision the key
// selects.
func (s *Hybrid) WriteRetry(req *WriteRequest, attempt int) {
	key := req.MetaKeys[0]
	if line := s.cache.Data(key); line != nil {
		*line = hybridInitLine(s.env, s.layout, key)
		s.cache.MarkDirty(key)
	}
}
