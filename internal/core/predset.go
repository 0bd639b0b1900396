package core

import (
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"strings"
	"unicode/utf8"

	"aid/internal/bitvec"
	"aid/internal/predicate"
)

// PredTable is a read-only list of predicate IDs that observation sets
// index into. The intervener that produces observations owns it and
// builds it once: a synthetic world over its predicates, an executor
// over its monitors' IDs. Every set drawn from one table shares it, so
// an observation costs one bit per table entry, and consumers that
// translate a table into their own indices (discovery's DAG nodes) do
// so once per table, not once per observation.
type PredTable struct {
	ids []predicate.ID
	// order holds the indices of ids sorted by ID: the order sets
	// iterate and encode in.
	order []int32
}

// NewPredTable builds a table over ids, which the table keeps and the
// caller must not modify. IDs must be distinct.
func NewPredTable(ids []predicate.ID) *PredTable {
	order := make([]int32, len(ids))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(string(ids[a]), string(ids[b])) })
	for k := 1; k < len(order); k++ {
		if ids[order[k-1]] == ids[order[k]] {
			panic(fmt.Sprintf("core: predicate table lists %q twice", ids[order[k]]))
		}
	}
	return &PredTable{ids: ids, order: order}
}

// IDOrder returns the table's indices sorted by ID (read-only): the
// order a producer walks when a per-predicate draw must not depend on
// how the table happens to be laid out.
func (t *PredTable) IDOrder() []int32 { return t.order }

// Set returns the set of the table entries whose indices bits holds.
// The set takes bits over: the caller must not modify it afterwards.
func (t *PredTable) Set(bits bitvec.Vec) PredSet { return PredSet{t: t, bits: bits} }

// PredSet is an immutable set of predicate IDs: the predicates one run
// observed. It is a bitset over its producer's PredTable.
//
// The zero PredSet has no table. It marks a missed run (a replay that
// produced no observation) and encodes as JSON null; an empty set drawn
// from a table is a run that observed nothing and encodes as {}.
type PredSet struct {
	t    *PredTable
	bits bitvec.Vec
}

// emptyTable backs sets built from no IDs: empty, but not missed.
var emptyTable = &PredTable{}

// PredSetOf returns the set of the given IDs over a table of its own;
// duplicates collapse.
func PredSetOf(ids ...predicate.ID) PredSet {
	if len(ids) == 0 {
		return PredSet{t: emptyTable}
	}
	uniq := slices.Clone(ids)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	return NewPredTable(uniq).Set(bitvec.Ones(len(uniq)))
}

// Table returns the table the set is drawn over (nil for a missed run).
// Only tests call it: aid's TestImportMemoSharesOneTable checks that a
// restored memo's observations share one table.
func (s PredSet) Table() *PredTable { return s.t }

// Len returns the number of IDs in the set.
func (s PredSet) Len() int { return s.bits.Count() }

// All iterates the set's IDs in ascending order.
func (s PredSet) All() iter.Seq[predicate.ID] {
	return func(yield func(predicate.ID) bool) {
		if s.t == nil {
			return
		}
		for _, i := range s.t.order {
			if s.bits.Has(int(i)) && !yield(s.t.ids[i]) {
				return
			}
		}
	}
}

// String lists the set's IDs in order.
func (s PredSet) String() string {
	if s.t == nil {
		return "<missed>"
	}
	return fmt.Sprint(slices.Collect(s.All()))
}

// MarshalJSON encodes the set as encoding/json encodes the
// map[predicate.ID]bool it replaces: an object of true values whose
// keys are sorted and escaped as map keys are, and null for a missed
// run. HTML escaping (<, >, & as \u003c, \u003e, \u0026) is left to the
// encoder, which applies it to a Marshaler's output exactly when it
// applies it to map keys, so the bytes match under either setting;
// memos persisted before sets replaced maps load and re-export
// unchanged.
func (s PredSet) MarshalJSON() ([]byte, error) {
	if s.t == nil {
		return []byte("null"), nil
	}
	b := make([]byte, 0, 2+s.Len()*24)
	b = append(b, '{')
	for id := range s.All() {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = appendJSONString(b, string(id))
		b = append(b, ":true"...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes what MarshalJSON (or a map[predicate.ID]bool)
// encodes: null is a missed run, and keys whose value is false are not
// in the set.
func (s *PredSet) UnmarshalJSON(data []byte) error {
	var m map[predicate.ID]bool
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*s = PredSet{}
		return nil
	}
	ids := make([]predicate.ID, 0, len(m))
	for id, v := range m {
		if v {
			ids = append(ids, id)
		}
	}
	*s = PredSetOf(ids...)
	return nil
}

// appendJSONString appends src as a JSON string the way encoding/json
// writes a map key with HTML escaping off: quotes, backslashes and
// control characters escaped, invalid UTF-8 replaced by \ufffd, and
// U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, src string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(src[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}
