package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"unstencil/internal/geom"
)

// Congruence-first assembly: detect row congruence *before* integrating, so
// each shared stencil row pays the quadrature bill once.
//
// integrateWeights computes every weight in stencil-local coordinates, so a
// row's weight block is a deterministic function of
//
//	(multiset of stencil-local element geometry, which candidates share an
//	 element (periodic images), the order those images accumulate in,
//	 kernel class, h, quadrature rule, basis)
//
// — nothing else. Element *ids* only name the columns. Two rows whose
// candidate walks produce bitwise-identical local geometry, partitioned
// identically into elements, therefore assemble bitwise-identical weight
// blocks; the member's columns follow from mapping each of the
// representative's contributing elements to the member element holding the
// same local geometry. When that mapping is one uniform id shift D the row
// is exactly one row of a stencil template (shared deltas + values, base
// element shifted by D); when it is not — periodic wrap makes spatial
// translates id-discontinuous — the member still skips quadrature and
// receives a directly stored row stamped through the mapping. That second
// case is what extends congruence beyond the dyadic interior: on a
// periodic mesh *every* translated row is geometrically congruent, wrapped
// or not.
//
// On large operators a strided congruence probe runs first: it hashes a
// small sample of rows and, when the sample is almost all singletons (no
// congruence to exploit — jittered or unstructured meshes), falls back to
// the naive parallel schedule so the path's overhead degrades to the probe
// alone. Past the probe, the path runs in three stages:
//
//  1. Signature prefilter. Every row canonicalises its candidate walk —
//     entries sorted by quantised local geometry, each carrying a
//     partition label (first-occurrence ordinal of its element id in
//     canonical order) — and hashes it together with the kernel class
//     keys. Equal hashes are candidates for congruence, nothing more:
//     quantisation deliberately buckets near-congruent rows (jittered or
//     non-dyadic meshes) together with exact translates.
//  2. Exact certification. Per class the representative's canonical
//     signature (full-precision coordinate bit patterns, not quantised) is
//     materialised; every other member canonicalises its own walk and
//     compares. Bitwise-equal geometry with identical partition labels
//     certifies stamping — lossless by the determinism argument above,
//     with no integration needed. This is what makes collision-induced
//     false sharing from the quantiser impossible: the quantiser only
//     chooses who gets compared, never who gets stamped.
//  3. Verification / demotion. A member whose partition labels match (so a
//     stamp is at least well-formed) but whose geometry is not bitwise
//     identical is fully integrated and compared bitwise against the
//     would-be stamp: equal rows are kept as verified stamps (bytes or
//     uniformity knowledge gained, no compute saved), unequal rows keep
//     their own weights as directly stored rows — the transparent per-row
//     fallback.
//     Members whose partition structure diverges are demoted directly.
//     Congruence-first and naive assembly are therefore bitwise identical
//     on every mesh; the tests pin exactly that.

// sigQuantumDefault is the signature quantisation step in units of h. Fine
// enough that genuinely different stencil geometries land in different
// prefilter buckets (a jittered mesh's rows stay singletons and skip the
// exact-compare pass), coarse enough to absorb sub-quantum rounding noise
// so near-congruent rows at least reach verification. Correctness never
// depends on this value.
const sigQuantumDefault = 1.0 / (1 << 30)

// sigEntry is one candidate pair of a row's canonical signature. lab is
// the partition label — the first-occurrence ordinal of the entry's
// element id in canonical order — which encodes *which entries share an
// element* without naming the element. b holds the bit patterns of the
// element's stencil-local vertices; key is a hash of their quantised
// values, the entry's contribution to the prefilter bucket.
type sigEntry struct {
	lab int32
	key uint64
	b   [6]uint64
}

// Per-member outcomes of class resolution.
const (
	memberStampedTpl    uint8 = iota + 1 // exact match, uniform id shift: templated, no quadrature
	memberStampedPlain                   // exact match, wrapped ids: directly stored stamped row, no quadrature
	memberVerifiedTpl                    // integrated, bitwise equal to the stamp, uniform shift
	memberVerifiedPlain                  // integrated, bitwise equal to the stamp, wrapped ids
	memberDemoted                        // integrated, kept its own weights as a directly stored row
)

// congClass is one prefilter bucket: rows sharing the quantised signature
// hash, resolved against members[0] (the representative).
type congClass struct {
	members  []int32    // ascending storage rows
	n        int        // candidate entry count
	kx, ky   int64      // representative's kernel class keys
	sig      []sigEntry // canonical signature (full-precision bits)
	repIDs   []int32    // label → representative element id
	slotLab  []int32    // contributing slot → label (slots = len(repElems))
	repElems []int32    // representative row in block form: ascending element ids
	repVals  []float64  // slot-major weight blocks (len = slots·basisN)
	status   []uint8    // per member (status[0] unused — the representative)
	shiftD   []int32    // per templated member: uniform element id shift vs the representative
}

// kernelClass returns the quantised one-sided shift keys identifying the
// kernel pair a stencil at pos receives — the same keys the kernel cache
// memoises on, so equal keys mean the bitwise-same kernel coefficients.
// (0, 0) for periodic domains (every point uses the symmetric kernel).
func (ev *Evaluator) kernelClass(pos geom.Point) (kxKey, kyKey int64) {
	if ev.Opt.Boundary == Periodic {
		return 0, 0
	}
	return ev.oneSidedKey(pos.X), ev.oneSidedKey(pos.Y)
}

// oneSidedKey mirrors oneSidedFor's shift computation but returns only the
// quantised cache key (0 = symmetric kernel; quantiseShift never returns
// bucket 0 for a non-zero shift, so the encoding is unambiguous).
func (ev *Evaluator) oneSidedKey(x float64) int64 {
	lo, hi := ev.Kernel.Support()
	shift := 0.0
	if x+ev.H*lo < 0 {
		shift = -(x/ev.H + lo)
	} else if x+ev.H*hi > 1 {
		shift = (1-x)/ev.H - hi
	}
	if shift == 0 {
		return 0
	}
	_, key := quantiseShift(shift)
	return key
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// The congruence probe hashes a small low-discrepancy sample of rows
// before committing to the full signature pass, escalating through
// probeStages until the observed sharing rate decides the schedule:
// at least 1/probeMinShareInv of the sampled rows must share a quantised
// signature with another sampled row to proceed (checked after every
// stage, so heavily congruent meshes commit at probeMinSample rows), and
// a stage with *zero* sharing bails to the naive schedule immediately —
// on jittered and unstructured meshes every sampled row is a singleton,
// so the fallback decision costs probeMinSample hashes instead of the
// full probeSampleRows. The probe only gates *cost*: both outcomes
// produce the bitwise-identical operator.
const (
	probeSampleRows  = 256 // final escalation stage
	probeMinSample   = 64  // first stage: smallest decisive sample
	probeMinShareInv = 8
)

// probeStages are the cumulative sample sizes the adaptive probe
// escalates through.
var probeStages = [...]int{probeMinSample, 2 * probeMinSample, probeSampleRows}

// probeRowAt maps probe sample index i to a storage row of an n-row
// operator via the bit-reversal (van der Corput) enumeration of
// [0, probeSampleRows): every prefix of the sequence is a near-uniform
// low-discrepancy sample of the rows, so escalating a stage extends the
// rows already hashed instead of resampling from scratch.
func probeRowAt(i, n int) int {
	return int(bits.Reverse8(uint8(i))) * n / probeSampleRows
}

// SignatureCache caches canonical signature hashes across operator
// assemblies, keyed by the row's position bit patterns and kernel-class
// keys. The congruence prefilter's hash for a row is a pure function of
// (mesh geometry, position, kernel class, h, quantisation step): rows
// sharing all five walk identical candidate enumerations and canonicalise
// to identical signatures. A cache must therefore be scoped to one
// (mesh, kernel order, h, quantum) tuple by its owner; the key carries
// the rest. Across boundary-condition variants on that tuple the scoping
// is still sound: a row whose kernel class keys are (0,0) under a
// one-sided boundary has its support strictly inside the domain — so the
// periodic variant of the same row walks the identical candidates — and
// every near-boundary row differs in (kx, ky) between variants, giving
// it distinct cache keys. A stale or colliding entry can only misgroup
// rows, never corrupt weights: stamping is gated by exact certification
// downstream, so cache bugs degrade speed, not output.
//
// Implementations must be safe for concurrent use; assembly calls Lookup
// and Store from many workers.
type SignatureCache interface {
	Lookup(xb, yb uint64, kx, ky int64) (exact, quant uint64, ok bool)
	Store(xb, yb uint64, kx, ky int64, exact, quant uint64)
}

// collectSignature walks the row's candidate enumeration and appends one
// entry per (image, element) pair: the *element id* temporarily parked in
// lab (canonicalizeSignature replaces it with the partition label), the
// local vertex bit patterns, and their quantised values. No clipping and
// no quadrature run here — the walk is the cheap per-row cost of the
// congruence path.
func (ev *Evaluator) collectSignature(pos geom.Point, wk *worker, buf []sigEntry, invQ float64) ([]sigEntry, error) {
	buf = buf[:0]
	err := ev.forEachRowCandidate(pos, wk, func(e int32, center geom.Point) {
		tri := ev.Mesh.Triangle(int(e)).Translate(geom.Pt(-center.X, -center.Y))
		s := sigEntry{lab: e, key: fnvOffset64}
		for i, c := range [6]float64{tri.A.X, tri.A.Y, tri.B.X, tri.B.Y, tri.C.X, tri.C.Y} {
			s.b[i] = math.Float64bits(c)
			s.key = (s.key ^ uint64(int64(math.Round(c*invQ)))) * fnvPrime64
		}
		buf = append(buf, s)
	})
	return buf, err
}

// canonicalizeSignature sorts entries into an order independent of the
// spatial-hash walk (whose bin order is *not* translation invariant):
// primarily by quantised local geometry — so near-congruent rows
// canonicalise alike and can bucket together — with exact bit patterns and
// finally the element id as tie-breaks to keep the order total. It then
// rewrites each entry's element id into its partition label and returns
// ids (label → element id), using labs as scratch. Entries sharing an
// element keep their relative walk order under the (stable) sort only if
// their geometry ties, which cannot happen for periodic images — distinct
// images of one element differ by whole domain shifts — so the canonical
// order of same-element images is ascending shift order: exactly the
// translation-invariant order forEachShift accumulates them in, which
// fixes the floating-point sum order of the shared row slot and is
// therefore part of the congruence certificate.
func canonicalizeSignature(ents []sigEntry, ids []int32, labs map[int32]int32) ([]sigEntry, []int32) {
	slices.SortStableFunc(ents, func(a, b sigEntry) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		for k := 0; k < 6; k++ {
			if a.b[k] != b.b[k] {
				if a.b[k] < b.b[k] {
					return -1
				}
				return 1
			}
		}
		return int(a.lab) - int(b.lab)
	})
	ids = ids[:0]
	clear(labs)
	for i := range ents {
		e := ents[i].lab
		l, ok := labs[e]
		if !ok {
			l = int32(len(ids))
			labs[e] = l
			ids = append(ids, e)
		}
		ents[i].lab = l
	}
	return ents, ids
}

// signatureHashes folds the kernel class and the canonicalised entry
// sequence into two FNV-1a hashes: the exact hash over full-precision bit
// patterns plus labels — rows sharing it are bitwise congruent up to FNV
// collision, which certification still re-checks — and the quantised hash
// over entry keys plus labels, the coarser bucket that groups
// near-congruent rows with exact translates for the verification tier.
func signatureHashes(kxKey, kyKey int64, ents []sigEntry) (exact, quantised uint64) {
	he, hq := uint64(fnvOffset64), uint64(fnvOffset64)
	he = (he ^ uint64(kxKey)) * fnvPrime64
	he = (he ^ uint64(kyKey)) * fnvPrime64
	hq = (hq ^ uint64(kxKey)) * fnvPrime64
	hq = (hq ^ uint64(kyKey)) * fnvPrime64
	he = (he ^ uint64(len(ents))) * fnvPrime64
	hq = (hq ^ uint64(len(ents))) * fnvPrime64
	for i := range ents {
		s := &ents[i]
		he = (he ^ uint64(uint32(s.lab))) * fnvPrime64
		hq = (hq ^ uint64(uint32(s.lab))) * fnvPrime64
		hq = (hq ^ s.key) * fnvPrime64
		for _, b := range s.b {
			he = (he ^ b) * fnvPrime64
		}
	}
	return he, hq
}

// compareRowSignature canonicalises a member row's own walk and compares
// it against the class signature. shape reports whether the partition
// labels and kernel class correspond — the precondition for a stamp to
// even be well-formed (the member has a distinct element for each of the
// representative's, with matching image structure); exact additionally
// requires every local vertex coordinate to be bitwise identical (the
// precondition for stamping without verification). ids maps label → the
// member's element id; buf and ids are returned for scratch reuse.
func (ev *Evaluator) compareRowSignature(pos geom.Point, wk *worker, cls *congClass, buf []sigEntry, ids []int32, labs map[int32]int32, invQ float64) (shape, exact bool, _ []sigEntry, _ []int32, err error) {
	kx, ky := ev.kernelClass(pos)
	buf, err = ev.collectSignature(pos, wk, buf, invQ)
	if err != nil {
		return false, false, buf, ids, err
	}
	if kx != cls.kx || ky != cls.ky || len(buf) != cls.n {
		return false, false, buf, ids, nil
	}
	buf, ids = canonicalizeSignature(buf, ids, labs)
	exact = true
	for k := range buf {
		if buf[k].lab != cls.sig[k].lab {
			return false, false, buf, ids, nil
		}
		exact = exact && buf[k].b == cls.sig[k].b
	}
	return true, exact, buf, ids, nil
}

// materializeSignature fills cls with the representative row's canonical
// signature, kernel class keys, and label → element id table.
func (ev *Evaluator) materializeSignature(pos geom.Point, wk *worker, cls *congClass, labs map[int32]int32, invQ float64) error {
	cls.kx, cls.ky = ev.kernelClass(pos)
	sig, err := ev.collectSignature(pos, wk, cls.sig[:0], invQ)
	if err != nil {
		return err
	}
	cls.sig, cls.repIDs = canonicalizeSignature(sig, cls.repIDs[:0], labs)
	cls.n = len(cls.sig)
	return nil
}

// buildStamp writes the member row implied by mapping each contributing
// slot of the representative through label → member element id, into the
// provided scratch (returned grown), in block form: one element id per
// basisN-wide weight block, exactly what SetRowBlocks takes. Slots are
// re-sorted by the member's element ids so the row is ascending exactly
// as flattenBlocks would emit it; ord is slot-index scratch.
func buildStamp(cls *congClass, memIDs []int32, basisN int, ord []int32, elems []int32, vals []float64) ([]int32, []int32, []float64) {
	slots := len(cls.slotLab)
	ord = ord[:0]
	for s := 0; s < slots; s++ {
		ord = append(ord, int32(s))
	}
	sort.Slice(ord, func(i, j int) bool {
		return memIDs[cls.slotLab[ord[i]]] < memIDs[cls.slotLab[ord[j]]]
	})
	elems, vals = elems[:0], vals[:0]
	for _, s := range ord {
		elems = append(elems, memIDs[cls.slotLab[s]])
		vals = append(vals, cls.repVals[int(s)*basisN:(int(s)+1)*basisN]...)
	}
	return ord, elems, vals
}

// uniformShift reports whether the member's slot mapping is one constant
// element id shift vs the representative — the case a template row can
// express (shared deltas, base element shifted by d).
func uniformShift(cls *congClass, memIDs []int32) (int32, bool) {
	if len(cls.slotLab) == 0 {
		return 0, true
	}
	d := memIDs[cls.slotLab[0]] - cls.repElems[0]
	for s, lab := range cls.slotLab {
		if memIDs[lab]-cls.repElems[s] != d {
			return 0, false
		}
	}
	return d, true
}

// rowsEqualBits compares two block-form rows: identical element ids and
// bitwise identical weight blocks.
func rowsEqualBits(elems []int32, vals []float64, elems2 []int32, vals2 []float64) bool {
	if len(elems) != len(elems2) || len(vals) != len(vals2) {
		return false
	}
	for i := range elems {
		if elems[i] != elems2[i] {
			return false
		}
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(vals2[i]) {
			return false
		}
	}
	return true
}

// hashRow computes one row's (exact, quantised) signature hashes on worker
// slot w, consulting the cross-assembly cache first: the hash pair is a
// pure function of the cache key on a fixed (mesh, kernel order, h,
// quantum) tuple (see SignatureCache), so a hit skips the candidate walk
// and canonicalisation — the entire per-row cost of the prefilter.
func (a *assembly) hashRow(w int, pos geom.Point) (exact, quant uint64, err error) {
	kx, ky := a.ev.kernelClass(pos)
	xb, yb := math.Float64bits(pos.X), math.Float64bits(pos.Y)
	if a.cache != nil {
		a.cacheLookups.Add(1)
		if he, hq, ok := a.cache.Lookup(xb, yb, kx, ky); ok {
			a.cacheHits.Add(1)
			return he, hq, nil
		}
	}
	s := &a.scr[w]
	s.sig, err = a.ev.collectSignature(pos, a.wks[w], s.sig, a.invQ)
	if err != nil {
		return 0, 0, err
	}
	s.sig, s.ids = canonicalizeSignature(s.sig, s.ids, s.labs)
	he, hq := signatureHashes(kx, ky, s.sig)
	if a.cache != nil {
		a.cache.Store(xb, yb, kx, ky, he, hq)
	}
	return he, hq, nil
}

// congruent is the congruence-first row schedule: adaptive probe,
// signature prefilter, per-class exact certification, stamped / verified /
// demoted member resolution, and direct template emission. The result is
// bitwise identical to the naive schedule for every mesh and every worker
// count; on meshes where rows repeat (structured grids, wrapped or not)
// most rows never run quadrature.
func (a *assembly) congruent() error {
	ev, bld, wks, scr, basisN := a.ev, a.bld, a.wks, a.scr, a.basisN
	stats := &a.stats
	n := len(a.positions)
	dispatch := len(wks)
	defer func() {
		stats.SigCacheLookups = a.cacheLookups.Load()
		stats.SigCacheHits = a.cacheHits.Load()
	}()

	// Congruence probe: on meshes with no repeated rows (jittered,
	// unstructured) the full signature pass is pure overhead, so before
	// paying it, hash a low-discrepancy sample and look for repeated
	// quantised signatures (exact equality implies quantised equality, so
	// one count covers both tiers). The sample escalates adaptively: each
	// stage's rows extend the previous stage's (bit-reversal ordering), a
	// sharing rate already past the proceed threshold commits early, and a
	// stage with zero sharing bails to the naive schedule at once — a
	// jittered mesh pays probeMinSample hashes, not probeSampleRows. A
	// sample that stays almost all singletons means the class machinery
	// cannot win: fall back to the naive schedule and the congruence path
	// costs only the probe — the graceful-degradation bound on
	// non-congruent meshes. Operators small enough that the sample would
	// be most of the rows skip the probe and keep the full prefilter
	// (which then *is* the probe).
	sigStart := time.Now()
	if n > 2*probeSampleRows {
		probeHash := make([]uint64, 0, probeSampleRows)
		counts := make(map[uint64]int, probeSampleRows)
		congruent := false
		for _, stage := range probeStages {
			lo := len(probeHash)
			probeHash = probeHash[:stage]
			if err := runDynamic(dispatch, stage-lo, func(w, i int) (err error) {
				_, probeHash[lo+i], err = a.hashRow(w, a.rowPos(probeRowAt(lo+i, n)))
				return err
			}); err != nil {
				return err
			}
			for _, h := range probeHash[lo:] {
				counts[h]++
			}
			shared := 0
			for _, h := range probeHash {
				if counts[h] >= 2 {
					shared++
				}
			}
			if shared*probeMinShareInv >= stage {
				congruent = true
				break
			}
			if shared == 0 {
				break
			}
		}
		stats.ProbeRows = len(probeHash)
		if !congruent {
			stats.SignatureWall = time.Since(sigStart)
			return a.naive()
		}
	}
	stats.ProbeCongruent = true

	// Stage 1: signature prefilter. Each row gets two hashes. The exact
	// hash (full-precision bits + labels) is the primary grouping: its
	// classes are bitwise congruent up to FNV collision, so stamping
	// inside one is expected to certify. The quantised hash is the second
	// layer: exact-singletons sharing a quantised bucket with an earlier
	// class attach to it as verification-tier members — near-congruent
	// rows (jitter, wrap-boundary rounding) that may still share the
	// integrated weights even though their geometry bits differ. Grouping
	// runs serially in ascending row order, so class membership — and
	// therefore the output — is deterministic for every worker count.
	exactHashes := make([]uint64, n)
	quantHashes := make([]uint64, n)
	if err := runDynamic(dispatch, n, func(w, r int) (err error) {
		exactHashes[r], quantHashes[r], err = a.hashRow(w, a.rowPos(r))
		return err
	}); err != nil {
		return err
	}
	type protoClass struct {
		members []int32
		qh      uint64
	}
	classOf := make(map[uint64]int, n)
	var protos []*protoClass
	for r := 0; r < n; r++ {
		if i, ok := classOf[exactHashes[r]]; ok {
			protos[i].members = append(protos[i].members, int32(r))
			continue
		}
		classOf[exactHashes[r]] = len(protos)
		protos = append(protos, &protoClass{members: []int32{int32(r)}, qh: quantHashes[r]})
	}
	qPrimary := make(map[uint64]int, len(protos))
	qCount := make(map[uint64]int, len(protos))
	for i, pc := range protos {
		if _, ok := qPrimary[pc.qh]; !ok {
			qPrimary[pc.qh] = i
		}
		qCount[pc.qh]++
	}
	var classes []*congClass
	var singles []int32
	classIdx := make(map[int]int, len(protos))
	for i, pc := range protos {
		if len(pc.members) >= 2 || (qCount[pc.qh] >= 2 && qPrimary[pc.qh] == i) {
			classIdx[i] = len(classes)
			classes = append(classes, &congClass{members: pc.members})
			continue
		}
		if len(pc.members) == 1 && qCount[pc.qh] >= 2 {
			p := classIdx[qPrimary[pc.qh]]
			classes[p].members = append(classes[p].members, pc.members[0])
			continue
		}
		singles = append(singles, pc.members[0])
	}
	for _, cls := range classes {
		cls.status = make([]uint8, len(cls.members))
		cls.shiftD = make([]int32, len(cls.members))
	}
	stats.Classes = len(classes)
	stats.SignatureWall = time.Since(sigStart)

	// Stage 2: per class, materialise the representative's canonical
	// signature and integrate its row — the one quadrature bill the whole
	// class shares — then label the contributing slots for stamping.
	if err := runDynamic(dispatch, len(classes), func(w, c int) error {
		wk, s, cls := wks[w], &scr[w], classes[c]
		rep := int(cls.members[0])
		if err := ev.materializeSignature(a.rowPos(rep), wk, cls, s.labs, a.invQ); err != nil {
			return err
		}
		if err := ev.assembleRow(a.rowPos(rep), wk, s.acc); err != nil {
			return err
		}
		s.cols, s.vals = s.acc.flattenBlocks(s.cols, s.vals)
		cls.repElems = append([]int32(nil), s.cols...)
		cls.repVals = append([]float64(nil), s.vals...)
		// s.labs still holds the representative's id → label table.
		cls.slotLab = make([]int32, len(cls.repElems))
		for slot := range cls.slotLab {
			cls.slotLab[slot] = s.labs[cls.repElems[slot]]
		}
		return nil
	}); err != nil {
		return err
	}

	// Stage 3: resolve members. Work units are fixed-size member chunks,
	// not classes — one interior class can cover most of a structured
	// mesh, and per-member cost spans two orders of magnitude (an exact
	// stamp is a walk, a demotion a full integration), so small chunks
	// claimed dynamically keep the workers level. Exact members are
	// stamped with no quadrature (uniform-shift stamps become template
	// rows in stage 5, wrapped ones directly stored rows here); shape-only
	// members integrate and verify bitwise against the stamp; the rest
	// demote to their own rows.
	type memberChunk struct {
		cls    *congClass
		lo, hi int
	}
	const chunkMembers = 16
	var chunks []memberChunk
	for _, cls := range classes {
		for lo := 1; lo < len(cls.members); lo += chunkMembers {
			chunks = append(chunks, memberChunk{cls, lo, min(lo+chunkMembers, len(cls.members))})
		}
	}
	if err := runDynamic(dispatch, len(chunks), func(w, u int) error {
		wk, s := wks[w], &scr[w]
		ck := chunks[u]
		cls := ck.cls
		for i := ck.lo; i < ck.hi; i++ {
			r := int(cls.members[i])
			pos := a.rowPos(r)
			shape, exact, sig, ids, err := ev.compareRowSignature(pos, wk, cls, s.sig, s.ids, s.labs, a.invQ)
			s.sig, s.ids = sig, ids
			if err != nil {
				return err
			}
			if exact {
				if d, ok := uniformShift(cls, ids); ok {
					cls.status[i], cls.shiftD[i] = memberStampedTpl, d
					continue
				}
				s.ord, s.scols, s.svals = buildStamp(cls, ids, basisN, s.ord, s.scols, s.svals)
				bld.SetRowBlocks(r, s.scols, s.svals)
				cls.status[i] = memberStampedPlain
				continue
			}
			// Not certified: integrate the row (this also stores it; a
			// verified uniform-shift member is re-pointed at the class
			// template in stage 5).
			if err := a.integrateRow(w, r); err != nil {
				return err
			}
			cls.status[i] = memberDemoted
			if !shape {
				continue
			}
			s.ord, s.scols, s.svals = buildStamp(cls, ids, basisN, s.ord, s.scols, s.svals)
			if rowsEqualBits(s.cols, s.vals, s.scols, s.svals) {
				cls.status[i] = memberVerifiedPlain
				if d, ok := uniformShift(cls, ids); ok {
					cls.status[i], cls.shiftD[i] = memberVerifiedTpl, d
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Stage 4: signature singletons assemble exactly as the naive path.
	if err := runDynamic(dispatch, len(singles), func(w, u int) error {
		return a.integrateRow(w, int(singles[u]))
	}); err != nil {
		return err
	}

	// Stage 5 (serial): emit templates and stamp uniform-shift rows. A
	// class becomes a template when at least two rows resolve through it
	// with a uniform shift and the pattern is non-empty; otherwise
	// surviving template candidates get shifted directly stored copies
	// (only reachable for empty rows — any non-empty stamped/verified
	// member implies a template).
	stamped := make([]int32, 0, 16)
	for _, cls := range classes {
		users := 1
		for i := 1; i < len(cls.members); i++ {
			switch cls.status[i] {
			case memberStampedTpl, memberVerifiedTpl:
				users++
			}
			switch cls.status[i] {
			case memberStampedTpl, memberStampedPlain:
				stats.RowsStamped++
			case memberVerifiedTpl, memberVerifiedPlain:
				stats.RowsVerified++
			case memberDemoted:
				stats.RowsDemoted++
			}
		}
		if cls.hasStatus(memberVerifiedTpl) || cls.hasStatus(memberVerifiedPlain) {
			stats.ClassesVerified++
		}
		if cls.hasStatus(memberDemoted) {
			stats.ClassesDemoted++
		}
		rep := int(cls.members[0])
		if users >= 2 && len(cls.repElems) > 0 {
			t := bld.AddTemplateBlocks(cls.repElems, cls.repVals)
			bld.SetRowTemplated(rep, t, cls.repElems[0])
			for i := 1; i < len(cls.members); i++ {
				if cls.status[i] == memberStampedTpl || cls.status[i] == memberVerifiedTpl {
					bld.SetRowTemplated(int(cls.members[i]), t, cls.repElems[0]+cls.shiftD[i])
				}
			}
			continue
		}
		bld.SetRowBlocks(rep, cls.repElems, cls.repVals)
		for i := 1; i < len(cls.members); i++ {
			if cls.status[i] == memberStampedTpl || cls.status[i] == memberVerifiedTpl {
				stamped = stamped[:0]
				for _, e := range cls.repElems {
					stamped = append(stamped, e+cls.shiftD[i])
				}
				bld.SetRowBlocks(int(cls.members[i]), stamped, cls.repVals)
			}
		}
	}
	stats.RowsIntegrated = n - stats.RowsStamped
	return nil
}

func (cls *congClass) hasStatus(st uint8) bool {
	for i := 1; i < len(cls.members); i++ {
		if cls.status[i] == st {
			return true
		}
	}
	return false
}
