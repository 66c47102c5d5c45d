package fleet

import (
	"math"
	"math/bits"

	"pasched/internal/cpufreq"
)

// placeIndex is the fleet's placement code: one incrementally
// maintained index per built-in policy. place returns the machine the
// policy picks for r, or ok=false to reject it. With powerOn the query
// may return an off machine (placing powers it on), which the policies
// take only when no running machine fits — or, for dvfs-aware, when
// powering one on is cheapest. Without it the only candidates are the
// placeable machines, powered on and not hidden: consolidation's
// targets. Outside a consolidation round no machine is hidden.
//
// The contract is exact: each index returns what its policy's linear
// scan over the same states returns, bit for bit. The scans live in
// placeindex_test.go as the oracle (linearPlace), and
// FuzzIndexedPlacement and FuzzConsolidationPlan hold the two together.
//
// The fleet calls update(i) after every mutation of states[i] (reserve,
// release, power-on, power-off, hiding); queries and updates both run
// on the single-threaded coordinator loop.
type placeIndex interface {
	place(r Request, powerOn bool) (int, bool)
	update(i int)
}

// newPlaceIndex returns the index for the fleet's policy. states is the
// fleet's live machine array — the index reads it in place; classOf
// maps machines to classes, and profiles holds each class's processor,
// which the dvfs-aware index turns into one power table per class.
func newPlaceIndex(pol Policy, states []machineState, classOf []int32, profiles []*cpufreq.Profile) placeIndex {
	var off offIndex
	off.init(states, classOf, len(profiles))
	switch pol.kind {
	case bestFit:
		x := &bfIndex{states: states, off: off}
		x.init()
		return x
	case dvfsAware:
		x := &dvfsIndex{states: states, off: off}
		x.init(profiles)
		return x
	default:
		x := &ffIndex{states: states, off: off}
		x.init()
		return x
	}
}

// offIndex tracks the powered-off machines per machine class as
// two-level bitmaps. Every off machine is pristine (the fleet snaps
// state back to full capacity on power-off), so all off machines of a
// class are interchangeable except for their index: the lowest-index
// off machine of a class answers any "which off machine" question for
// that class, and min runs in O(machines/4096) words.
type offIndex struct {
	states  []machineState
	classOf []int32
	// words[ci] has bit i set iff machine i (of class ci) is off;
	// sum[ci] has bit w set iff words[ci][w] is nonzero.
	words [][]uint64
	sum   [][]uint64
}

func (o *offIndex) init(states []machineState, classOf []int32, nClasses int) {
	o.states = states
	o.classOf = classOf
	n := len(states)
	o.words = make([][]uint64, nClasses)
	o.sum = make([][]uint64, nClasses)
	for ci := 0; ci < nClasses; ci++ {
		o.words[ci] = make([]uint64, (n+63)/64)
		o.sum[ci] = make([]uint64, (len(o.words[ci])+63)/64)
	}
	for i := range states {
		o.update(i)
	}
}

// update re-derives machine i's membership from its current power
// state; idempotent, so callers need not track the previous state.
func (o *offIndex) update(i int) {
	ci := o.classOf[i]
	w := uint(i) >> 6
	bit := uint64(1) << (uint(i) & 63)
	if o.states[i].On {
		o.words[ci][w] &^= bit
		if o.words[ci][w] == 0 {
			o.sum[ci][w>>6] &^= uint64(1) << (w & 63)
		}
	} else {
		o.words[ci][w] |= bit
		o.sum[ci][w>>6] |= uint64(1) << (w & 63)
	}
}

// min returns the lowest-index off machine of class ci, or -1.
func (o *offIndex) min(ci int32) int {
	for swi, sw := range o.sum[ci] {
		if sw == 0 {
			continue
		}
		w := swi<<6 + bits.TrailingZeros64(sw)
		return w<<6 + bits.TrailingZeros64(o.words[ci][w])
	}
	return -1
}

// lowestFit returns the lowest-index off machine that fits the request:
// per-class minima compared across classes, exploiting that every off
// machine of a class fits iff the class's pristine capacity does.
func (o *offIndex) lowestFit(r Request) (int, bool) {
	best := -1
	for ci := range o.words {
		rep := o.min(int32(ci))
		if rep < 0 || !o.states[rep].Fits(r) {
			continue
		}
		if best < 0 || rep < best {
			best = rep
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// ffIndex serves first-fit: a segment tree over machine index whose
// nodes carry the subtree maxima of free memory and free credit for
// placeable machines (off and hidden leaves are sentinel-empty). The
// query descends leftmost-first with both maxima as the pruning test,
// so the first leaf reached is the lowest-index placeable machine that
// fits; the off phase is the shared per-class bitmap.
type ffIndex struct {
	states []machineState
	off    offIndex

	base int // leaves live at [base, base+n)
	mem  []int32
	cred []float64
}

func (x *ffIndex) init() {
	n := len(x.states)
	x.base = 1
	for x.base < n {
		x.base <<= 1
	}
	x.mem = make([]int32, 2*x.base)
	x.cred = make([]float64, 2*x.base)
	for i := range x.mem {
		x.mem[i] = -1
		x.cred[i] = math.Inf(-1)
	}
	for i := range x.states {
		x.update(i)
	}
}

func (x *ffIndex) update(i int) {
	x.off.update(i)
	pos := x.base + i
	if m := &x.states[i]; m.On && !m.hidden {
		x.mem[pos] = int32(m.FreeMemMB)
		x.cred[pos] = m.FreeCreditPct
	} else {
		x.mem[pos] = -1
		x.cred[pos] = math.Inf(-1)
	}
	for pos >>= 1; pos >= 1; pos >>= 1 {
		l, r := 2*pos, 2*pos+1
		x.mem[pos] = x.mem[l]
		if x.mem[r] > x.mem[pos] {
			x.mem[pos] = x.mem[r]
		}
		x.cred[pos] = x.cred[l]
		if x.cred[r] > x.cred[pos] {
			x.cred[pos] = x.cred[r]
		}
	}
}

// query returns the lowest leaf under node whose memory and credit both
// cover the request, or -1. The per-axis maxima can pass on a subtree
// with no single leaf passing both, so the descent backtracks; a leaf
// hit is exact because a leaf's maxima are its own values.
func (x *ffIndex) query(node int, memNeed int32, credNeed float64) int {
	if x.mem[node] < memNeed || x.cred[node] < credNeed {
		return -1
	}
	for node < x.base {
		if l := 2 * node; x.mem[l] >= memNeed && x.cred[l] >= credNeed {
			if leaf := x.query(l, memNeed, credNeed); leaf >= 0 {
				return leaf
			}
		}
		node = 2*node + 1
		if x.mem[node] < memNeed || x.cred[node] < credNeed {
			return -1
		}
	}
	return node - x.base
}

func (x *ffIndex) place(r Request, powerOn bool) (int, bool) {
	if i := x.query(1, int32(r.MemoryMB), r.CreditPct); i >= 0 {
		return i, true
	}
	if !powerOn {
		return 0, false
	}
	return x.off.lowestFit(r)
}

// bfIndex serves best-fit: a treap over the placeable machines keyed by
// (FreeCreditPct, index) with a subtree free-memory maximum, so the
// tightest-fitting machine is the first in-order node with credit >=
// the request and memory that fits — O(log machines) instead of a full
// scan. Node ids are machine indices, so the structure is allocation-
// free after init; update is erase + reinsert under the new key.
//
// One subtlety keeps it bit-exact with the linear scan: the scan ranks
// candidates by the rounded double FreeCreditPct - CreditPct, and
// machines with *distinct* credits can round to the same headroom, in
// which case the scan's tie-break (lowest index) can prefer a machine
// later in credit order. After the first hit, place walks the next
// distinct credit values while their rounded headroom stays equal,
// taking the lowest index — headroom is monotone in credit, so the walk
// stops at the first strictly larger value.
type bfIndex struct {
	states []machineState
	off    offIndex

	root    int32
	left    []int32
	right   []int32
	keyCred []float64 // key as of insert time
	mem     []int32   // value as of insert time
	maxMem  []int32
	prio    []uint64
	inTree  []bool
}

func (x *bfIndex) init() {
	n := len(x.states)
	x.root = -1
	x.left = make([]int32, n)
	x.right = make([]int32, n)
	x.keyCred = make([]float64, n)
	x.mem = make([]int32, n)
	x.maxMem = make([]int32, n)
	x.prio = make([]uint64, n)
	x.inTree = make([]bool, n)
	for i := range x.prio {
		x.prio[i] = mix64(uint64(i) + 0x9e3779b97f4a7c15)
	}
	for i := range x.states {
		x.update(i)
	}
}

func (x *bfIndex) pull(n int32) {
	mm := x.mem[n]
	if l := x.left[n]; l >= 0 && x.maxMem[l] > mm {
		mm = x.maxMem[l]
	}
	if r := x.right[n]; r >= 0 && x.maxMem[r] > mm {
		mm = x.maxMem[r]
	}
	x.maxMem[n] = mm
}

// less orders nodes by (keyCred, id) against a probe key.
func (x *bfIndex) less(n int32, cred float64, id int32) bool {
	return x.keyCred[n] < cred || (x.keyCred[n] == cred && n < id)
}

// split partitions t into keys < (cred, id) and keys >= (cred, id).
func (x *bfIndex) split(t int32, cred float64, id int32) (int32, int32) {
	if t < 0 {
		return -1, -1
	}
	if x.less(t, cred, id) {
		l, r := x.split(x.right[t], cred, id)
		x.right[t] = l
		x.pull(t)
		return t, r
	}
	l, r := x.split(x.left[t], cred, id)
	x.left[t] = r
	x.pull(t)
	return l, t
}

func (x *bfIndex) merge(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if x.prio[a] > x.prio[b] {
		x.right[a] = x.merge(x.right[a], b)
		x.pull(a)
		return a
	}
	x.left[b] = x.merge(a, x.left[b])
	x.pull(b)
	return b
}

func (x *bfIndex) update(i int) {
	x.off.update(i)
	id := int32(i)
	if x.inTree[id] {
		l, r := x.split(x.root, x.keyCred[id], id)
		_, r2 := x.split(r, x.keyCred[id], id+1)
		x.root = x.merge(l, r2)
		x.inTree[id] = false
	}
	if m := &x.states[i]; m.On && !m.hidden {
		x.keyCred[id] = m.FreeCreditPct
		x.mem[id] = int32(m.FreeMemMB)
		x.maxMem[id] = x.mem[id]
		x.left[id], x.right[id] = -1, -1
		l, r := x.split(x.root, x.keyCred[id], id)
		x.root = x.merge(x.merge(l, id), r)
		x.inTree[id] = true
	}
}

// firstGE returns the in-order-first node with key credit >= cred and
// memory >= memNeed, pruning on the subtree memory maximum.
func (x *bfIndex) firstGE(t int32, cred float64, memNeed int32) int32 {
	if t < 0 || x.maxMem[t] < memNeed {
		return -1
	}
	if x.keyCred[t] < cred {
		return x.firstGE(x.right[t], cred, memNeed)
	}
	if n := x.firstGE(x.left[t], cred, memNeed); n >= 0 {
		return n
	}
	if x.mem[t] >= memNeed {
		return t
	}
	return x.firstGE(x.right[t], cred, memNeed)
}

func (x *bfIndex) place(r Request, powerOn bool) (int, bool) {
	memNeed := int32(r.MemoryMB)
	n := x.firstGE(x.root, r.CreditPct, memNeed)
	if n < 0 {
		if !powerOn {
			return 0, false
		}
		return x.off.lowestFit(r)
	}
	best := int(n)
	bestLeft := x.keyCred[n] - r.CreditPct
	cur := x.keyCred[n]
	for {
		n2 := x.firstGE(x.root, math.Nextafter(cur, math.Inf(1)), memNeed)
		if n2 < 0 || x.keyCred[n2]-r.CreditPct != bestLeft {
			break
		}
		if int(n2) < best {
			best = int(n2)
		}
		cur = x.keyCred[n2]
	}
	return best, true
}

// dvfsIndex serves dvfs-aware: the placeable machines in dense arrays
// (each has its own offered load, so each must be scored) plus one
// representative per machine class for the powered-off pool — every off
// machine of a class is pristine, so its power-on cost is identical and
// only the lowest index can win the (cost, index) tie-break the linear
// scan implements. At cloud scale the off pool dominates the estate, so
// the estimate runs O(on + classes) times per arrival instead of
// O(machines).
//
// Beside the ON list, position-aligned arrays cache each machine's free
// capacity, offered load, class power table and base draw
// E(OfferedLoadPct), refreshed by update. A query filters on contiguous
// memory and runs one estimate per fitting machine; the marginal cost
// E(load+add) - base is the linear scan's to the bit, since base is the
// same estimate of the same load.
type dvfsIndex struct {
	states []machineState
	off    offIndex
	tabs   []*powerTable // per machine class

	pos []int32 // machine -> position in the ON arrays, -1 if absent

	// The ON arrays, unordered.
	on   []int32
	mem  []int
	cred []float64
	load []float64
	base []float64
	tab  []*powerTable
}

// dvfsScale is the load multiplier of the dvfs-aware estimate.
const dvfsScale = 1 + dvfsMargin

func (x *dvfsIndex) init(profiles []*cpufreq.Profile) {
	x.tabs = make([]*powerTable, len(profiles))
	for ci, prof := range profiles {
		x.tabs[ci] = newPowerTable(prof)
	}
	x.pos = make([]int32, len(x.states))
	for i := range x.pos {
		x.pos[i] = -1
	}
	for i := range x.states {
		x.update(i)
	}
}

func (x *dvfsIndex) update(i int) {
	x.off.update(i)
	m := &x.states[i]
	p := x.pos[i]
	if !m.On || m.hidden {
		if p >= 0 {
			last := len(x.on) - 1
			moved := x.on[last]
			x.on[p], x.mem[p], x.cred[p] = moved, x.mem[last], x.cred[last]
			x.load[p], x.base[p], x.tab[p] = x.load[last], x.base[last], x.tab[last]
			x.pos[moved] = p
			x.pos[i] = -1
			x.on, x.mem, x.cred = x.on[:last], x.mem[:last], x.cred[:last]
			x.load, x.base, x.tab = x.load[:last], x.base[:last], x.tab[:last]
		}
		return
	}
	if p < 0 {
		p = int32(len(x.on))
		x.pos[i] = p
		x.on = append(x.on, int32(i))
		x.mem = append(x.mem, 0)
		x.cred = append(x.cred, 0)
		x.load = append(x.load, 0)
		x.base = append(x.base, 0)
		x.tab = append(x.tab, x.tabs[x.off.classOf[i]])
	}
	x.mem[p] = m.FreeMemMB
	x.cred[p] = m.FreeCreditPct
	x.load[p] = m.OfferedLoadPct
	x.base[p] = x.tab[p].watts(m.OfferedLoadPct, dvfsScale)
}

func (x *dvfsIndex) place(r Request, powerOn bool) (int, bool) {
	add := r.CreditPct * r.MeanActivity
	best, bestCost := -1, 0.0
	// Equal-length views let the compiler drop the loop's bounds checks.
	n := len(x.on)
	on, cred, load, base, tab := x.on[:n], x.cred[:n], x.load[:n], x.base[:n], x.tab[:n]
	// The ON list is unordered, so the linear scan's first-wins tie
	// handling becomes an explicit lexicographic (cost, index) minimum.
	for p, mem := range x.mem[:n] {
		if !(mem >= r.MemoryMB && cred[p] >= r.CreditPct) { // machineState.Fits
			continue
		}
		cost := tab[p].watts(load[p]+add, dvfsScale) - base[p]
		if i := int(on[p]); best < 0 || cost < bestCost || (cost == bestCost && i < best) {
			best, bestCost = i, cost
		}
	}
	if powerOn {
		for ci, t := range x.tabs {
			rep := x.off.min(int32(ci))
			if rep < 0 || !x.states[rep].Fits(r) {
				continue
			}
			cost := t.watts(add, dvfsScale)
			if best < 0 || cost < bestCost || (cost == bestCost && rep < best) {
				best, bestCost = rep, cost
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
