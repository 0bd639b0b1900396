package trace_test

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/oracle/tracejson"
	"aid/internal/trace"
)

// oracleCases are records at the corners of encoding/json's rules,
// with the verdict the oracle gives each; TestDecodeLogsMatchesOracle
// also requires the reader's logs and failing line to match the
// oracle's.
var oracleCases = []struct {
	name  string
	input string
	ok    bool
}{
	{"null record", "null\n", true},
	{"null fields", `{"id":"a","id":null,"seed":3,"seed":null,"calls":[{"method":"M","thread":2,"thread":null,"return":{"int":4},"return":null,"injected":true,"injected":null}]}`, true},
	{"null slices", `{"calls":[{"method":"M","accesses":[{"object":"o","locks":["a"],"locks":null}],"accesses":null}],"calls":null}`, true},
	{"null elements", `{"calls":[null,{"method":"M","accesses":[null,{"locks":[null,"a"]}]}]}`, true},
	{"keys ignore case", `{"ID":"a","SEED":5,"Outcome":1,"FAILURESIG":"x","Calls":[{"METHOD":"m","ReTuRn":{"VOID":true,"Int":2}}]}`, true},
	{"Kelvin sign key", "{\"calls\":[{\"accesses\":[{\"object\":\"o\",\"\u212aind\":1}]}]}", true},
	{"escaped Kelvin sign key", `{"calls":[{"accesses":[{"object":"o","\u212aind":1}]}]}`, true},
	{"long s key", "{\"\u017feed\":3}", true},
	{"escaped keys", `{"\u0069d":"a","s\u0065ed":4,"c\u0061lls":[]}`, true},
	{"unknown fields", `{"id":"a","extra":{"x":[1,2.5e-3,{"y":null}],"z":"s","t":true},"calls":[{"method":"m","foo":[false,-0.5,"\u00e9"],"accesses":[{"bar":{}}]}]}`, true},
	{"repeated scalar", `{"id":"a","id":"b","seed":1,"seed":2}`, true},
	{"repeated calls merge", `{"calls":[{"method":"A","thread":1},{"method":"B","thread":2}],"calls":[{"method":"C"}],"calls":[{},{}]}`, true},
	{"empty calls replaces", `{"calls":[{"method":"A","thread":1}],"calls":[],"calls":[{}]}`, true},
	{"null calls replaces", `{"calls":[{"method":"A","thread":1}],"calls":null,"calls":[{}]}`, true},
	{"repeated accesses merge", `{"calls":[{"accesses":[{"object":"x","locks":["a","b"]},{"object":"y","kind":5}],"accesses":[{"kind":1}],"accesses":[{"at":2},{}]}]}`, true},
	{"repeated locks merge", `{"calls":[{"accesses":[{"object":"x","locks":["a","b"],"locks":["c"],"locks":[null,null]}]}]}`, true},
	{"return merges", `{"calls":[{"method":"M","return":{"void":true},"return":{"int":5}}]}`, true},
	{"int64 range", `{"seed":-9223372036854775808,"outcome":-0,"calls":[{"instance":9223372036854775807}]}`, true},
	{"fraction", `{"seed":1.0}`, false},
	{"exponent", `{"seed":1e3}`, false},
	{"above int64", `{"seed":9223372036854775808}`, false},
	{"below int64", `{"seed":-9223372036854775809}`, false},
	{"many digits", `{"seed":123456789012345678901234567890}`, false},
	{"leading zero", `{"seed":01}`, false},
	{"bare minus", `{"seed":-}`, false},
	{"escapes", `{"id":"a\"b\\c\/d\b\f\n\r\t\u00e9\u0000<&>"}`, true},
	{"surrogate pair", `{"id":"\ud83d\ude00"}`, true},
	{"lone surrogates", `{"id":"\ud800x\udc00\ud800\u0041\udbff\udbff\udfff\ud800"}`, true},
	{"invalid UTF-8", "{\"id\":\"\xff\xfe\xed\xa0\x80a\xc3\"}", true},
	{"invalid UTF-8 key", "{\"\xffid\":\"a\"}", true},
	{"line separators", "{\"id\":\"\u2028\u2029\"}", true},
	{"raw control character", "{\"id\":\"a\x01b\"}", false},
	{"invalid escape", `{"id":"\x41"}`, false},
	{"short unicode escape", `{"id":"\u12"}`, false},
	{"CRLF lines", "{\"id\":\"a\"}\r\n{\"id\":\"b\"}\r\n", true},
	{"inner whitespace", " \t{ \"id\" : \"a\" ,\r\"calls\" : [ { } ] } \t", true},
	{"second value", `{"id":"a"} {"id":"b"}`, false},
	{"trailing garbage", "{}\nx", false},
	{"trailing comma", `{"id":"a",}`, false},
	{"array trailing comma", `{"calls":[{},]}`, false},
	{"top-level array", `[]`, false},
	{"top-level string", `"s"`, false},
	{"top-level number", `5`, false},
	{"top-level true", `true`, false},
	{"string id", `{"id":5}`, false},
	{"object calls", `{"calls":{}}`, false},
	{"number call", `{"calls":[5]}`, false},
	{"array return", `{"calls":[{"return":[]}]}`, false},
	{"number injected", `{"calls":[{"injected":1}]}`, false},
	{"string locks", `{"calls":[{"accesses":[{"locks":"a"}]}]}`, false},
	{"string seed", `{"seed":"1"}`, false},
	{"bad literal", `{"id":nul}`, false},
	{"bad unknown literal", `{"x":tru}`, false},
	{"bad unknown number", `{"x":1.}`, false},
	{"unicode space line", "\u00a0\n{}\n", true},
	{"vertical tab", "\v{}", false},
	{"NUL byte", "{}\x00", false},
	{"error on line 3", "{}\n\n{\"id\":1}\n{}\n", false},
	{"depth 10000", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"depth 10001", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"depth 10001 in objects", `{"x":` + strings.Repeat(`{"y":`, 10000) + "1" + strings.Repeat("}", 10000) + `}`, false},
	{"1 MiB of brackets", `{"x":` + strings.Repeat("[", 1<<20), false},
	{"1 MiB top-level brackets", strings.Repeat("[", 1<<20), false},
}

// TestDecodeLogsMatchesOracle holds DecodeLogs and EncodeLogs to the
// oracle on oracleCases and on the six studies' 50+50 corpora.
func TestDecodeLogsMatchesOracle(t *testing.T) {
	for _, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			if ok := matchOracle(t, []byte(c.input)); ok != c.ok {
				t.Fatalf("accepted = %v, want %v", ok, c.ok)
			}
		})
	}
	for i, body := range studyCorpora(t) {
		if !matchOracle(t, body) {
			t.Fatalf("%s: corpus rejected", casestudy.All()[i].Name)
		}
	}
}

// TestEncodeLogsMatchesOracle: EncodeLogs writes what encoding/json
// writes for LogSet.Set, over the collection's own logs (accesses in
// time order, grouped by call on the way out) and over interned random
// sets whose names need every escape.
func TestEncodeLogsMatchesOracle(t *testing.T) {
	for _, s := range casestudy.All() {
		logs, _, err := casestudy.Collect(t.Context(), s, casestudy.CollectConfig{Successes: 20, Failures: 20, SeedCap: 20000})
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := trace.EncodeLogs(&got, logs); err != nil {
			t.Fatal(err)
		}
		if err := tracejson.Encode(&want, logs.Set()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: EncodeLogs differs from encoding/json over the collected logs", s.Name)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		s := randomSet(rng)
		var got, want bytes.Buffer
		if err := trace.Encode(&got, s); err != nil {
			t.Fatal(err)
		}
		if err := tracejson.Encode(&want, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Encode differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
		matchOracle(t, want.Bytes())
	}
}

// names are the strings randomSet draws names from: every escape
// encoding/json writes, and invalid UTF-8.
var names = []string{"", "M", "Get", "a b", `q"uote`, `back\slash`, "<a&b>", "\u2028\u2029", "\x00\x1f\x7f", "\b\f\n\r\t", "\xff", "\xed\xa0\x80", "\u00e9", "\U0001f600"}

// randomSet draws a set with the record schema's every shape: nil and
// empty calls, exceptions, injected calls, access kinds beyond read
// and write, empty and repeated locks, and negative numbers.
func randomSet(rng *rand.Rand) *trace.Set {
	name := func() string { return names[rng.Intn(len(names))] }
	s := &trace.Set{}
	for range rng.Intn(4) {
		e := trace.Execution{ID: name(), Seed: rng.Int63n(1<<40) - 1<<39, Outcome: trace.Outcome(rng.Intn(3)), FailureSig: name()}
		switch rng.Intn(4) {
		case 0:
		case 1:
			e.Calls = []trace.MethodCall{}
		default:
			for range 1 + rng.Intn(4) {
				c := trace.MethodCall{Method: name(), Instance: rng.Intn(5) - 1, Thread: trace.ThreadID(rng.Intn(3)),
					Start: trace.Time(rng.Intn(50)), End: trace.Time(rng.Intn(50)), Exception: name(), Injected: rng.Intn(3) == 0,
					Return: trace.Value{Void: rng.Intn(2) == 0, Int: rng.Int63n(7) - 3}}
				for range rng.Intn(3) {
					a := trace.Access{Object: trace.ObjectID(name()), Kind: trace.AccessKind(rng.Intn(4) - 1), At: trace.Time(rng.Intn(50))}
					for range rng.Intn(3) {
						a.Locks = append(a.Locks, name())
					}
					c.Accesses = append(c.Accesses, a)
				}
				e.Calls = append(e.Calls, c)
			}
		}
		s.Executions = append(s.Executions, e)
	}
	return s
}

var studyBodies struct {
	once   sync.Once
	bodies [][]byte
	err    error
}

// studyCorpora returns the six studies' 50+50 corpora as JSON lines,
// collected once per test binary and encoded by the oracle.
func studyCorpora(tb testing.TB) [][]byte {
	tb.Helper()
	studyBodies.once.Do(func() {
		for _, s := range casestudy.All() {
			logs, _, err := casestudy.Collect(tb.Context(), s, casestudy.CollectConfig{Successes: 50, Failures: 50, SeedCap: 20000})
			if err != nil {
				studyBodies.err = err
				return
			}
			var buf bytes.Buffer
			if err := tracejson.Encode(&buf, logs.Set()); err != nil {
				studyBodies.err = err
				return
			}
			studyBodies.bodies = append(studyBodies.bodies, buf.Bytes())
		}
	})
	if studyBodies.err != nil {
		tb.Fatal(studyBodies.err)
	}
	return studyBodies.bodies
}

// decodeStudies decodes every study corpus with the reader or the
// oracle.
func decodeStudies(tb testing.TB, bodies [][]byte, oracle bool) {
	for _, body := range bodies {
		var err error
		if oracle {
			var s *trace.Set
			s, err = tracejson.Decode(bytes.NewReader(body))
			if err == nil {
				trace.Intern(s)
			}
		} else {
			_, err = trace.DecodeLogs(bytes.NewReader(body), "")
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDecodeStudiesAllocs pins the reader's allocations over the six
// studies' corpora to at most a tenth of the oracle's (decode, then
// Intern, the path it replaced).
func TestDecodeStudiesAllocs(t *testing.T) {
	bodies := studyCorpora(t)
	reader := testing.AllocsPerRun(3, func() { decodeStudies(t, bodies, false) })
	oracle := testing.AllocsPerRun(1, func() { decodeStudies(t, bodies, true) })
	t.Logf("six studies' corpora: reader %.0f allocations, oracle %.0f", reader, oracle)
	if reader > oracle/10 {
		t.Fatalf("the reader makes %.0f allocations, more than a tenth of the oracle's %.0f", reader, oracle)
	}
}

// BenchmarkDecodeStudies decodes the six studies' 50+50 corpora into
// log form, with the reader and with the oracle's decode and Intern.
func BenchmarkDecodeStudies(b *testing.B) {
	bodies := studyCorpora(b)
	var n int64
	for _, body := range bodies {
		n += int64(len(body))
	}
	for _, bc := range []struct {
		name   string
		oracle bool
	}{{"reader", false}, {"oracle", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(n)
			b.ReportAllocs()
			for b.Loop() {
				decodeStudies(b, bodies, bc.oracle)
			}
		})
	}
}
