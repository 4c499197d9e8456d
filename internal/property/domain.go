// Package property implements the data-property algebra used by Flecc to
// decide which views share data (paper §4.1, Definitions 1–3).
//
// A property is a tuple (name, D) where D is a value domain: either a closed
// numeric interval [min,max] or a finite set of discrete values. Two
// properties intersect iff they have the same name and their domains
// intersect; two property sets intersect iff any pair of their properties
// does. Flecc treats a non-empty intersection as a (potential) data-sharing
// relationship between the two views that declared the sets.
package property

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the two domain representations supported by the paper:
// an interval D = [dmin, dmax] or a discrete set D = {d1, ..., dn}.
type Kind uint8

const (
	// KindEmpty is the domain with no values. It is the zero Domain and the
	// result of any intersection that eliminates every value.
	KindEmpty Kind = iota
	// KindInterval is a closed numeric interval [Min, Max].
	KindInterval
	// KindDiscrete is a finite set of string-valued members.
	KindDiscrete
)

func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindInterval:
		return "interval"
	case KindDiscrete:
		return "discrete"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Domain is a value domain D_p. The zero value is the empty domain.
//
// Domains are immutable after construction; all operations return new
// domains. Discrete members are kept sorted and deduplicated so that equal
// domains have identical representations (useful for hashing and tests).
type Domain struct {
	kind Kind
	// interval bounds, valid when kind == KindInterval
	min, max float64
	// sorted unique members, valid when kind == KindDiscrete
	members []string
}

// Empty returns the empty domain.
func Empty() Domain { return Domain{} }

// Interval returns the closed interval [min, max]. If min > max the result
// is the empty domain (the interval contains no values).
func Interval(min, max float64) Domain {
	if min > max || math.IsNaN(min) || math.IsNaN(max) {
		return Domain{}
	}
	return Domain{kind: KindInterval, min: min, max: max}
}

// Point returns the degenerate interval [v, v].
func Point(v float64) Domain { return Interval(v, v) }

// Discrete returns the discrete domain containing exactly the given members
// (duplicates removed). An empty member list yields the empty domain.
func Discrete(members ...string) Domain {
	if len(members) == 0 {
		return Domain{}
	}
	ms := make([]string, len(members))
	copy(ms, members)
	sort.Strings(ms)
	// dedupe in place
	w := 1
	for i := 1; i < len(ms); i++ {
		if ms[i] != ms[w-1] {
			ms[w] = ms[i]
			w++
		}
	}
	ms = ms[:w]
	return Domain{kind: KindDiscrete, members: ms}
}

// DiscreteInts is a convenience constructor for discrete domains whose
// members are integers (e.g. flight numbers).
func DiscreteInts(members ...int) Domain {
	ms := make([]string, len(members))
	for i, m := range members {
		ms[i] = strconv.Itoa(m)
	}
	return Discrete(ms...)
}

// DiscreteRange returns the discrete domain {lo, lo+1, ..., hi} rendered as
// integers. If lo > hi the result is empty.
func DiscreteRange(lo, hi int) Domain {
	if lo > hi {
		return Domain{}
	}
	ms := make([]string, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		ms = append(ms, strconv.Itoa(v))
	}
	return Discrete(ms...)
}

// Kind reports the domain's representation.
func (d Domain) Kind() Kind { return d.kind }

// IsEmpty reports whether the domain contains no values.
func (d Domain) IsEmpty() bool { return d.kind == KindEmpty }

// Bounds returns the interval bounds. It panics unless Kind()==KindInterval.
func (d Domain) Bounds() (min, max float64) {
	if d.kind != KindInterval {
		panic("property: Bounds on non-interval domain")
	}
	return d.min, d.max
}

// Members returns a copy of the discrete members. It returns nil for
// non-discrete domains.
func (d Domain) Members() []string {
	if d.kind != KindDiscrete {
		return nil
	}
	out := make([]string, len(d.members))
	copy(out, d.members)
	return out
}

// Size returns the number of values in a discrete domain, or -1 for an
// interval (uncountable for our purposes), or 0 for the empty domain.
func (d Domain) Size() int {
	switch d.kind {
	case KindEmpty:
		return 0
	case KindDiscrete:
		return len(d.members)
	default:
		return -1
	}
}

// ContainsValue reports whether the numeric value v lies in the domain.
// For discrete domains the value is matched against integer renderings,
// rendered into a stack buffer and searched by hand so that a membership
// test allocates nothing (codecs call it once per record they scope).
func (d Domain) ContainsValue(v float64) bool {
	switch d.kind {
	case KindInterval:
		return v >= d.min && v <= d.max
	case KindDiscrete:
		if v != math.Trunc(v) {
			return false
		}
		var buf [20]byte
		b := strconv.AppendInt(buf[:0], int64(v), 10)
		lo, hi := 0, len(d.members)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if d.members[mid] < string(b) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(d.members) && d.members[lo] == string(b)
	default:
		return false
	}
}

// ContainsMember reports whether the discrete member m is in the domain.
func (d Domain) ContainsMember(m string) bool {
	if d.kind != KindDiscrete {
		return false
	}
	i := sort.SearchStrings(d.members, m)
	return i < len(d.members) && d.members[i] == m
}

// Intersect returns the intersection of two domains (Definition 3's domain
// part). Interval∩interval and discrete∩discrete are exact. A mixed
// interval∩discrete intersection keeps the discrete members whose numeric
// rendering falls inside the interval; non-numeric members are dropped.
func (d Domain) Intersect(o Domain) Domain {
	switch {
	case d.kind == KindEmpty || o.kind == KindEmpty:
		return Domain{}
	case d.kind == KindInterval && o.kind == KindInterval:
		lo := math.Max(d.min, o.min)
		hi := math.Min(d.max, o.max)
		return Interval(lo, hi)
	case d.kind == KindDiscrete && o.kind == KindDiscrete:
		return intersectSorted(d.members, o.members)
	case d.kind == KindDiscrete && o.kind == KindInterval:
		return filterByInterval(d.members, o.min, o.max)
	default: // interval ∩ discrete
		return filterByInterval(o.members, d.min, d.max)
	}
}

// Overlaps reports whether the two domains share at least one value. It is
// equivalent to !d.Intersect(o).IsEmpty() but avoids allocation for the
// common discrete/discrete case.
func (d Domain) Overlaps(o Domain) bool {
	switch {
	case d.kind == KindEmpty || o.kind == KindEmpty:
		return false
	case d.kind == KindInterval && o.kind == KindInterval:
		return math.Max(d.min, o.min) <= math.Min(d.max, o.max)
	case d.kind == KindDiscrete && o.kind == KindDiscrete:
		i, j := 0, 0
		for i < len(d.members) && j < len(o.members) {
			switch strings.Compare(d.members[i], o.members[j]) {
			case 0:
				return true
			case -1:
				i++
			default:
				j++
			}
		}
		return false
	default:
		return !d.Intersect(o).IsEmpty()
	}
}

// Union returns the smallest representable domain containing both inputs.
// For two intervals the result is the covering interval (which may include
// values in neither input — callers that need exactness should keep the
// operands separate). Mixed kinds widen to a covering interval when both
// sides are numeric, otherwise the discrete members are merged.
func (d Domain) Union(o Domain) Domain {
	switch {
	case d.kind == KindEmpty:
		return o
	case o.kind == KindEmpty:
		return d
	case d.kind == KindInterval && o.kind == KindInterval:
		return Interval(math.Min(d.min, o.min), math.Max(d.max, o.max))
	case d.kind == KindDiscrete && o.kind == KindDiscrete:
		return Discrete(append(d.Members(), o.members...)...)
	default:
		// Mixed: try numeric covering interval.
		var disc Domain
		var iv Domain
		if d.kind == KindDiscrete {
			disc, iv = d, o
		} else {
			disc, iv = o, d
		}
		lo, hi := iv.min, iv.max
		for _, m := range disc.members {
			v, err := strconv.ParseFloat(m, 64)
			if err != nil {
				// Non-numeric member: fall back to discretizing is not
				// possible; return the discrete side merged with interval
				// endpoints rendered as members. This keeps Union total.
				ms := disc.Members()
				ms = append(ms, formatFloat(iv.min), formatFloat(iv.max))
				return Discrete(ms...)
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return Interval(lo, hi)
	}
}

// SubsetOf reports whether every value of d lies in o. The paper's view
// definition (§3.2) describes a view's working data as "a subset of the
// data defined by the original component"; this is the check for it.
func (d Domain) SubsetOf(o Domain) bool {
	switch {
	case d.kind == KindEmpty:
		return true
	case o.kind == KindEmpty:
		return false
	case d.kind == KindInterval && o.kind == KindInterval:
		return d.min >= o.min && d.max <= o.max
	case d.kind == KindDiscrete:
		for _, m := range d.members {
			switch o.kind {
			case KindDiscrete:
				if !o.ContainsMember(m) {
					return false
				}
			default:
				v, err := strconv.ParseFloat(m, 64)
				if err != nil || !o.ContainsValue(v) {
					return false
				}
			}
		}
		return true
	default:
		// A non-degenerate interval has uncountably many values; it can
		// only be a subset of another interval (handled above) or equal a
		// discrete rendering when degenerate.
		if d.min == d.max {
			return o.ContainsValue(d.min)
		}
		return false
	}
}

// Equal reports structural equality of the two domains.
func (d Domain) Equal(o Domain) bool {
	if d.kind != o.kind {
		return false
	}
	switch d.kind {
	case KindEmpty:
		return true
	case KindInterval:
		return d.min == o.min && d.max == o.max
	default:
		if len(d.members) != len(o.members) {
			return false
		}
		for i := range d.members {
			if d.members[i] != o.members[i] {
				return false
			}
		}
		return true
	}
}

// String renders the domain in the textual syntax accepted by ParseDomain:
// "[lo,hi]" for intervals, "{a,b,c}" for discrete sets, "{}" when empty.
func (d Domain) String() string {
	switch d.kind {
	case KindEmpty:
		return "{}"
	case KindInterval:
		return "[" + formatFloat(d.min) + "," + formatFloat(d.max) + "]"
	default:
		return "{" + strings.Join(d.members, ",") + "}"
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func intersectSorted(a, b []string) Domain {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch strings.Compare(a[i], b[j]) {
		case 0:
			out = append(out, a[i])
			i++
			j++
		case -1:
			i++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return Domain{}
	}
	return Domain{kind: KindDiscrete, members: out}
}

func filterByInterval(members []string, lo, hi float64) Domain {
	var out []string
	for _, m := range members {
		v, err := strconv.ParseFloat(m, 64)
		if err != nil {
			continue
		}
		if v >= lo && v <= hi {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return Domain{}
	}
	return Domain{kind: KindDiscrete, members: out}
}
