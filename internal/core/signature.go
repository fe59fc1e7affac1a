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
// same local geometry. The member then skips quadrature and is stored by
// reference: each of its blocks reuses the representative's value block,
// whatever the id mapping — periodic wrap makes spatial translates
// id-discontinuous, and that costs nothing here. That is what extends
// congruence beyond the dyadic interior: on a periodic mesh *every*
// translated row is geometrically congruent, wrapped or not.
//
// On large operators a strided congruence probe runs first: it hashes a
// small sample of rows and, when the sample is almost all singletons (no
// congruence to exploit — jittered or unstructured meshes), falls back to
// the naive parallel schedule so the path's overhead degrades to the probe
// alone. Past the probe, the path runs in three stages:
//
//  1. Signature prefilter. Every row canonicalises its candidate walk —
//     entries sorted by local geometry bits, each carrying a partition
//     label (first-occurrence ordinal of its element id in canonical
//     order) — and hashes it together with the kernel class keys. Rows
//     with equal hashes form a class, a candidate for congruence and
//     nothing more.
//  2. Exact certification. Per class the representative's canonical
//     signature is materialised and its row integrated; every other member
//     canonicalises its own walk and compares. Bitwise-equal geometry with
//     identical partition labels certifies the stamp — lossless by the
//     determinism argument above, with no integration needed. A member that
//     fails (an FNV collision) is integrated as its own row, so a collision
//     costs time, never output.
//  3. Singletons integrate exactly as the naive schedule does.
//
// Congruence-first and naive assembly are therefore bitwise identical on
// every mesh, down to the value pool the builder interns; the tests pin
// exactly that.

// sigEntry is one candidate pair of a row's canonical signature. lab is
// the partition label — the first-occurrence ordinal of the entry's
// element id in canonical order — which encodes *which entries share an
// element* without naming the element. b holds the bit patterns of the
// element's stencil-local vertices.
type sigEntry struct {
	lab int32
	b   [6]uint64
}

// congClass is one prefilter bucket: rows sharing the signature hash,
// resolved against members[0] (the representative).
type congClass struct {
	members []int32    // ascending storage rows
	n       int        // candidate entry count
	kx, ky  int64      // representative's kernel class keys
	sig     []sigEntry // canonical signature
	repIDs  []int32    // label → representative element id
	slotLab []int32    // representative block → label
	stamped []bool     // per member (stamped[0] unused — the representative)
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
// at least 1/probeMinShareInv of the sampled rows must share a signature
// with another sampled row to proceed (checked after every stage, so
// heavily congruent meshes commit at probeMinSample rows), and a stage
// with *zero* sharing bails to the naive schedule immediately — on
// jittered and unstructured meshes every sampled row is a singleton, so
// the fallback decision costs probeMinSample hashes instead of the full
// probeSampleRows. The probe only gates *cost*: both outcomes produce the
// bitwise-identical operator.
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
// (mesh geometry, position, kernel class, h): rows sharing all four walk
// identical candidate enumerations and canonicalise to identical
// signatures. A cache must therefore be scoped to one (mesh, kernel order,
// h) tuple by its owner; the key carries the rest. Across
// boundary-condition variants on that tuple the scoping is still sound: a
// row whose kernel class keys are (0,0) under a one-sided boundary has its
// support strictly inside the domain — so the periodic variant of the same
// row walks the identical candidates — and every near-boundary row differs
// in (kx, ky) between variants, giving it distinct cache keys. A stale or
// colliding entry can only misgroup rows, never corrupt weights: stamping
// is gated by exact certification downstream, so cache bugs degrade speed,
// not output.
//
// Implementations must be safe for concurrent use; assembly calls Lookup
// and Store from many workers.
type SignatureCache interface {
	Lookup(xb, yb uint64, kx, ky int64) (hash uint64, ok bool)
	Store(xb, yb uint64, kx, ky int64, hash uint64)
}

// collectSignature walks the row's candidate enumeration and appends one
// entry per (image, element) pair: the *element id* temporarily parked in
// lab (canonicalizeSignature replaces it with the partition label) and the
// local vertex bit patterns. No clipping and no quadrature run here — the
// walk is the cheap per-row cost of the congruence path.
func (ev *Evaluator) collectSignature(pos geom.Point, wk *worker, buf []sigEntry) ([]sigEntry, error) {
	buf = buf[:0]
	err := ev.forEachRowCandidate(pos, wk, func(e int32, center geom.Point) {
		tri := ev.Mesh.Triangle(int(e)).Translate(geom.Pt(-center.X, -center.Y))
		s := sigEntry{lab: e}
		for i, c := range [6]float64{tri.A.X, tri.A.Y, tri.B.X, tri.B.Y, tri.C.X, tri.C.Y} {
			s.b[i] = math.Float64bits(c)
		}
		buf = append(buf, s)
	})
	return buf, err
}

// canonicalizeSignature sorts entries into an order independent of the
// spatial-hash walk (whose bin order is *not* translation invariant): by
// local geometry bits, with the element id as tie-break to keep the order
// total. It then rewrites each entry's element id into its partition label
// and returns ids (label → element id), using labs as scratch. Entries
// sharing an element keep their relative walk order under the (stable)
// sort only if their geometry ties, which cannot happen for periodic
// images — distinct images of one element differ by whole domain shifts —
// so the canonical order of same-element images is a function of their
// geometry alone, and the sum order of the shared row slot is fixed by
// forEachShift's translation-invariant image order, which the certificate
// compares through the labels.
func canonicalizeSignature(ents []sigEntry, ids []int32, labs map[int32]int32) ([]sigEntry, []int32) {
	slices.SortStableFunc(ents, func(a, b sigEntry) int {
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

// signatureHash folds the kernel class and the canonicalised entry
// sequence — bit patterns plus labels — into one FNV-1a hash. Rows sharing
// it are bitwise congruent up to FNV collision, which certification
// re-checks.
func signatureHash(kxKey, kyKey int64, ents []sigEntry) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(kxKey)) * fnvPrime64
	h = (h ^ uint64(kyKey)) * fnvPrime64
	h = (h ^ uint64(len(ents))) * fnvPrime64
	for i := range ents {
		s := &ents[i]
		h = (h ^ uint64(uint32(s.lab))) * fnvPrime64
		for _, b := range s.b {
			h = (h ^ b) * fnvPrime64
		}
	}
	return h
}

// certifyMember canonicalises a member row's own walk and reports whether
// it is bitwise congruent to the class signature: the same kernel class,
// and per canonical entry the same partition label and local vertex bits.
// ids maps label → the member's element id; buf and ids are returned for
// scratch reuse.
func (ev *Evaluator) certifyMember(pos geom.Point, wk *worker, cls *congClass, buf []sigEntry, ids []int32, labs map[int32]int32) (bool, []sigEntry, []int32, error) {
	kx, ky := ev.kernelClass(pos)
	buf, err := ev.collectSignature(pos, wk, buf)
	if err != nil || kx != cls.kx || ky != cls.ky || len(buf) != cls.n {
		return false, buf, ids, err
	}
	buf, ids = canonicalizeSignature(buf, ids, labs)
	return slices.Equal(buf, cls.sig), buf, ids, nil
}

// materializeSignature fills cls with the representative row's canonical
// signature, kernel class keys, and label → element id table.
func (ev *Evaluator) materializeSignature(pos geom.Point, wk *worker, cls *congClass, labs map[int32]int32) error {
	cls.kx, cls.ky = ev.kernelClass(pos)
	sig, err := ev.collectSignature(pos, wk, cls.sig[:0])
	if err != nil {
		return err
	}
	cls.sig, cls.repIDs = canonicalizeSignature(sig, cls.repIDs[:0], labs)
	cls.n = len(cls.sig)
	return nil
}

// buildStamp maps each representative block through label → member
// element id and returns the member row in block form: its element ids
// ascending, as flattenBlocks would emit them, and for each the
// representative block whose weights it takes — exactly what
// SetRowStamp takes. elems and slots are scratch.
func buildStamp(cls *congClass, memIDs []int32, elems, slots []int32) ([]int32, []int32) {
	slots = slots[:0]
	for s := range cls.slotLab {
		slots = append(slots, int32(s))
	}
	sort.Slice(slots, func(i, j int) bool {
		return memIDs[cls.slotLab[slots[i]]] < memIDs[cls.slotLab[slots[j]]]
	})
	elems = elems[:0]
	for _, s := range slots {
		elems = append(elems, memIDs[cls.slotLab[s]])
	}
	return elems, slots
}

// hashRow computes one row's signature hash on worker slot w, consulting
// the cross-assembly cache first: the hash is a pure function of the cache
// key on a fixed (mesh, kernel order, h) tuple (see SignatureCache), so a
// hit skips the candidate walk and canonicalisation — the entire per-row
// cost of the prefilter.
func (a *assembly) hashRow(w int, pos geom.Point) (uint64, error) {
	kx, ky := a.ev.kernelClass(pos)
	xb, yb := math.Float64bits(pos.X), math.Float64bits(pos.Y)
	if a.cache != nil {
		a.cacheLookups.Add(1)
		if h, ok := a.cache.Lookup(xb, yb, kx, ky); ok {
			a.cacheHits.Add(1)
			return h, nil
		}
	}
	s := &a.scr[w]
	var err error
	if s.sig, err = a.ev.collectSignature(pos, a.wks[w], s.sig); err != nil {
		return 0, err
	}
	s.sig, s.ids = canonicalizeSignature(s.sig, s.ids, s.labs)
	h := signatureHash(kx, ky, s.sig)
	if a.cache != nil {
		a.cache.Store(xb, yb, kx, ky, h)
	}
	return h, nil
}

// congruent is the congruence-first row schedule: adaptive probe,
// signature prefilter, per-class exact certification, then stamped or
// integrated members. The result is bitwise identical to the naive
// schedule for every mesh and every worker count; on meshes where rows
// repeat (structured grids, wrapped or not) most rows never run
// quadrature.
func (a *assembly) congruent() error {
	ev, bld, wks, scr := a.ev, a.bld, a.wks, a.scr
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
	// signatures. The sample escalates adaptively: each stage's rows extend
	// the previous stage's (bit-reversal ordering), a sharing rate already
	// past the proceed threshold commits early, and a stage with zero
	// sharing bails to the naive schedule at once — a jittered mesh pays
	// probeMinSample hashes, not probeSampleRows. A sample that stays almost
	// all singletons means the class machinery cannot win: fall back to the
	// naive schedule and the congruence path costs only the probe — the
	// graceful-degradation bound on non-congruent meshes. Operators small
	// enough that the sample would be most of the rows skip the probe and
	// keep the full prefilter (which then *is* the probe).
	sigStart := time.Now()
	if n > 2*probeSampleRows {
		probeHash := make([]uint64, 0, probeSampleRows)
		counts := make(map[uint64]int, probeSampleRows)
		congruent := false
		for _, stage := range probeStages {
			lo := len(probeHash)
			probeHash = probeHash[:stage]
			if err := runDynamic(dispatch, stage-lo, func(w, i int) (err error) {
				probeHash[lo+i], err = a.hashRow(w, a.rowPos(probeRowAt(lo+i, n)))
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

	// Stage 1: signature prefilter. Rows sharing a hash form a class; the
	// grouping runs serially in ascending row order, so class membership —
	// and therefore the output — is deterministic for every worker count.
	hashes := make([]uint64, n)
	if err := runDynamic(dispatch, n, func(w, r int) (err error) {
		hashes[r], err = a.hashRow(w, a.rowPos(r))
		return err
	}); err != nil {
		return err
	}
	classOf := make(map[uint64]int, n)
	var groups [][]int32
	for r := 0; r < n; r++ {
		if i, ok := classOf[hashes[r]]; ok {
			groups[i] = append(groups[i], int32(r))
			continue
		}
		classOf[hashes[r]] = len(groups)
		groups = append(groups, []int32{int32(r)})
	}
	var classes []*congClass
	var singles []int32
	for _, g := range groups {
		if len(g) == 1 {
			singles = append(singles, g[0])
			continue
		}
		classes = append(classes, &congClass{members: g, stamped: make([]bool, len(g))})
	}
	stats.Classes = len(classes)
	stats.SignatureWall = time.Since(sigStart)

	// Stage 2: per class, materialise the representative's canonical
	// signature and integrate its row — the one quadrature bill the whole
	// class shares — then label its blocks for stamping.
	if err := runDynamic(dispatch, len(classes), func(w, c int) error {
		wk, s, cls := wks[w], &scr[w], classes[c]
		rep := int(cls.members[0])
		if err := ev.materializeSignature(a.rowPos(rep), wk, cls, s.labs); err != nil {
			return err
		}
		if err := ev.assembleRow(a.rowPos(rep), wk, s.acc); err != nil {
			return err
		}
		s.cols, s.vals = s.acc.flattenBlocks(s.cols, s.vals)
		bld.SetRowBlocks(rep, s.cols, s.vals)
		// s.labs still holds the representative's id → label table.
		cls.slotLab = make([]int32, len(s.cols))
		for slot, e := range s.cols {
			cls.slotLab[slot] = s.labs[e]
		}
		return nil
	}); err != nil {
		return err
	}

	// Stage 3: resolve members. Work units are fixed-size member chunks,
	// not classes — one interior class can cover most of a structured
	// mesh, and per-member cost spans two orders of magnitude (a stamp is a
	// walk, a collision a full integration), so small chunks claimed
	// dynamically keep the workers level. Certified members are stamped
	// from the representative with no quadrature; the rest integrate.
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
		s, ck := &scr[w], chunks[u]
		cls := ck.cls
		for i := ck.lo; i < ck.hi; i++ {
			r := int(cls.members[i])
			exact, sig, ids, err := ev.certifyMember(a.rowPos(r), wks[w], cls, s.sig, s.ids, s.labs)
			s.sig, s.ids = sig, ids
			if err != nil {
				return err
			}
			if !exact {
				if err := a.integrateRow(w, r); err != nil {
					return err
				}
				continue
			}
			s.scols, s.slots = buildStamp(cls, ids, s.scols, s.slots)
			bld.SetRowStamp(r, s.scols, int(cls.members[0]), s.slots)
			cls.stamped[i] = true
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

	for _, cls := range classes {
		demoted := 0
		for _, st := range cls.stamped[1:] {
			if st {
				stats.RowsStamped++
			} else {
				demoted++
			}
		}
		stats.RowsDemoted += demoted
		if demoted > 0 {
			stats.ClassesDemoted++
		}
	}
	stats.RowsIntegrated = n - stats.RowsStamped
	return nil
}
