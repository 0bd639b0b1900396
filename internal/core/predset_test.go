package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"unicode/utf8"

	"aid/internal/bitvec"
	"aid/internal/predicate"
)

// idAlphabet mixes plain ID characters with everything encoding/json
// escapes in a map key: HTML-sensitive bytes, quotes, backslashes,
// control characters, non-ASCII text, the JavaScript line separators
// and an invalid UTF-8 byte.
var idAlphabet = []string{
	"a", "Z", "0", ":", "|", "@", "#", "_", ".", " ",
	"<", ">", "&", `"`, `\`, "/", "\n", "\t", "\x00", "\x1f", "\x7f",
	"é", "ß", "日本", "\u2028", "\u2029", "\U0001F600", "\xff",
}

func randomIDs(rng *rand.Rand) []predicate.ID {
	ids := make([]predicate.ID, rng.Intn(12))
	for i := range ids {
		var b []byte
		for range 1 + rng.Intn(6) {
			b = append(b, idAlphabet[rng.Intn(len(idAlphabet))]...)
		}
		ids[i] = predicate.ID(b)
	}
	return ids
}

// encodeBoth encodes v with json.Marshal and with an encoder that
// leaves HTML characters unescaped.
func encodeBoth(t *testing.T, v any) (escaped, raw []byte) {
	t.Helper()
	escaped, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return escaped, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestPredSetJSONMatchesMap: for random ID sets, a PredSet encodes
// byte for byte as the map[predicate.ID]bool it replaced (under HTML
// escaping and without it, standalone and inside an Observation), and
// the map's encoding and the set's decode to the same set. The empty
// set encodes as {} and the missed run's zero value as null, as an
// empty and a nil map did.
func TestPredSetJSONMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(set PredSet, m map[predicate.ID]bool) {
		t.Helper()
		setJSON, setRaw := encodeBoth(t, set)
		mapJSON, mapRaw := encodeBoth(t, m)
		if !bytes.Equal(setJSON, mapJSON) {
			t.Fatalf("set encodes as %s, the map as %s", setJSON, mapJSON)
		}
		if !bytes.Equal(setRaw, mapRaw) {
			t.Fatalf("without HTML escaping the set encodes as %s, the map as %s", setRaw, mapRaw)
		}
		obsSet, _ := encodeBoth(t, []Observation{{Failed: true, Observed: set, Confidence: 0.5}})
		obsMap, _ := encodeBoth(t, []struct {
			Failed     bool
			Observed   map[predicate.ID]bool
			Confidence float64
		}{{true, m, 0.5}})
		if !bytes.Equal(obsSet, obsMap) {
			t.Fatalf("observation encodes as %s, with a map as %s", obsSet, obsMap)
		}
		for _, data := range [][]byte{mapJSON, mapRaw} {
			var back PredSet
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			var backMap map[predicate.ID]bool
			if err := json.Unmarshal(data, &backMap); err != nil {
				t.Fatal(err)
			}
			if (back.t == nil) != (backMap == nil) {
				t.Fatalf("%s decodes to a missed %v set, a nil %v map", data, back.t == nil, backMap == nil)
			}
			fromMap := PredSetOf(mapKeys(backMap)...)
			if !slices.Equal(slices.Collect(back.All()), slices.Collect(fromMap.All())) || back.Len() != len(backMap) {
				t.Fatalf("%s decodes to %v, the map to %v", data, back, fromMap)
			}
			again, _ := encodeBoth(t, back)
			if backMap != nil && !bytes.Equal(again, mapJSON) && !hasInvalidUTF8(m) {
				t.Fatalf("decoded set re-encodes as %s, want %s", again, mapJSON)
			}
		}
	}
	check(PredSet{}, nil)
	check(PredSetOf(), map[predicate.ID]bool{})
	for range 2000 {
		ids := randomIDs(rng)
		m := make(map[predicate.ID]bool, len(ids))
		for _, id := range ids {
			m[id] = true
		}
		check(PredSetOf(ids...), m)
		// The same IDs as a producer sets them: a subset of a table
		// that lists them in an order of its own.
		if len(ids) == 0 {
			continue
		}
		keys := mapKeys(m)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		table := NewPredTable(keys)
		bits := bitvec.New(len(table.ids))
		sub := map[predicate.ID]bool{}
		for i, id := range table.ids {
			if rng.Intn(2) == 0 {
				bits.SetInCap(i)
				sub[id] = true
			}
		}
		set := table.Set(bits)
		check(set, sub)
	}
}

// TestPredSetMissedRun: the zero set is the missed-run marker and an
// empty set is not; false values in a decoded map leave their keys
// out of the set.
func TestPredSetMissedRun(t *testing.T) {
	if !(Observation{}).Missed() || (Observation{Observed: PredSetOf()}).Missed() {
		t.Fatal("only the zero set marks a missed run")
	}
	var s PredSet
	if err := json.Unmarshal([]byte(`{"a":true,"b":false,"a":true}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.t == nil || !slices.Equal(slices.Collect(s.All()), []predicate.ID{"a"}) {
		t.Fatalf("decoded %v", s)
	}
	if err := json.Unmarshal([]byte(`null`), &s); err != nil || s.t != nil {
		t.Fatalf("null decodes to %v (%v), want a missed run", s, err)
	}
	if err := json.Unmarshal([]byte(`{"a":1}`), &s); err == nil {
		t.Fatal("a non-boolean value decoded")
	}
}

func mapKeys(m map[predicate.ID]bool) []predicate.ID {
	var ids []predicate.ID
	for id, v := range m {
		if v {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func hasInvalidUTF8(m map[predicate.ID]bool) bool {
	for id := range m {
		if !utf8.ValidString(string(id)) {
			return true
		}
	}
	return false
}
