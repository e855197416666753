// Test fixture for the hotcopy analyzer.
package hotcopy

type vector [10]float64

// Get has a value receiver: every call copies all 80 bytes first.
func (v vector) Get(i int) float64 { return v[i] }

// At is the pointer-receiver twin.
func (v *vector) At(i int) float64 { return v[i] }

type spec struct {
	base, scaled, sens vector
	jitter             float64
}

func (s spec) level(i int) float64 { return s.base[i] * s.jitter }

func (s *spec) levelPtr(i int) float64 { return s.base[i] * s.jitter }

// pair is 16 bytes: small value receivers travel in registers.
type pair struct{ lo, hi float64 }

func (p pair) span() float64 { return p.hi - p.lo }

// line is exactly 64 bytes, the largest receiver the rule lets through.
type line [8]float64

func (l line) first() float64 { return l[0] }

type reader interface{ Get(i int) float64 }

//bolt:hotpath
func hot(v *vector, s *spec, p pair, l *line, r reader, i int) float64 {
	total := v.Get(i)          // want `hotcopy\.vector\)\.Get copies its 80-byte value receiver`
	total += vector.Get(*v, i) // want `hotcopy\.vector\)\.Get copies its 80-byte value receiver`
	total += s.level(i)        // want `hotcopy\.spec\)\.level copies its 248-byte value receiver`
	total += v.At(i) + s.levelPtr(i)
	total += p.span() + l.first()
	total += r.Get(i) // dynamic dispatch: the receiver is an interface word pair
	return total + v[i]
}

// Not annotated, so not checked.
func cold(v vector, i int) float64 { return v.Get(i) }

//bolt:hotpath
func excused(v *vector) float64 {
	return v.Get(0) //bolt:nolint hotcopy -- fixture: constant index, the copy is elided after inlining
}
