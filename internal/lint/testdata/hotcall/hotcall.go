// Test fixture for hotalloc's transitive half: the acceptance case for the
// interprocedural layer. Sum's annotated body contains no allocation
// construct, so a walk of the body alone finds nothing, but the callee
// chain Sum → fill → scratch reaches a make: the summary layer records
// scratch's site with the same allocSites walker, and hotalloc reports it at
// the call site with the full chain.
package hotcall

// scratch is the allocation two hops away.
func scratch(n int) []int {
	return make([]int, n)
}

// fill is the intermediate hop: no local allocation, inherits one.
func fill(n int) []int {
	return scratch(n)
}

// grow allocates locally but only under a capacity guard: lazy-init sites
// do not count, so calling grow from a hot path is fine.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	return buf[:n]
}

// formatted allocates through the curated external table (fmt.Sprintf).
func formatted(n int) string {
	return "n=" + itoa(n)
}

// itoa is a hand-rolled allocation-free conversion... except it is not:
// the append has no capacity provenance.
func itoa(n int) string {
	var buf []byte
	for n > 0 {
		buf = append(buf, byte('0'+n%10))
		n /= 10
	}
	return string(buf)
}

// Sum is the hot path. Its own body allocates nothing — there is no
// construct here — but two of its calls reach allocations transitively.
//
//bolt:hotpath
func Sum(buf []int, n int) int {
	tmp := fill(n) // want `call on a hot path allocates transitively: hotcall.fill → hotcall.scratch → make \(hotcall.go:\d+\)`
	buf = grow(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	total := 0
	for _, v := range tmp {
		total += v
	}
	label := formatted(n) // want `call on a hot path allocates transitively: hotcall.formatted → hotcall.itoa → append without capacity provenance \(hotcall.go:\d+\)`
	_ = label
	return total
}

// record is an allocation no make or literal betrays: storing a non-pointer
// value in an interface boxes it.
var last any

func record(v float64) {
	last = v
}

// Note allocates nothing itself; its callee only boxes. The one allocation
// model counts boxing one call away exactly as it does in a hot body.
//
//bolt:hotpath
func Note(v float64) {
	record(v) // want `call on a hot path allocates transitively: hotcall.record → interface assignment boxes float64 \(hotcall.go:\d+\)`
}

// excusedScratch is not a hot path, but its allocation is excused where it
// happens: the suppression keeps Excused clean, so it is in use — deleting
// it makes Excused report the make — and must not be judged stale.
func excusedScratch(n int) []int {
	return make([]int, n) //bolt:nolint hotalloc -- fixture: the caller's budget test pins this one allocation
}

// staleScratch lost the allocation its suppression excused, so that
// suppression hides nothing and is stale.
func staleScratch(buf []int) []int {
	return buf[:0] //bolt:nolint hotalloc -- fixture: the make it excused was removed // want `unused //bolt:nolint`
}

//bolt:hotpath
func Excused(buf []int, n int) int {
	return len(excusedScratch(n)) + len(staleScratch(buf))
}
