package trace

import (
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// EncodeLogs writes the corpus as JSON lines, one execution record per
// line: the bytes encoding/json writes for ls.Set(), field order,
// omitted empty fields and HTML-safe escapes included, without building
// the set. Each symbol is quoted once, and each run's accesses are
// grouped by call as LogRun.Execution groups them.
func EncodeLogs(w io.Writer, ls *LogSet) error {
	e := encoder{
		funcs:   quoteNames(ls.Syms.Funcs),
		objects: quoteNames(ls.Syms.Objects),
		excs:    quoteNames(ls.Syms.Exceptions),
		mutexes: quoteNames(ls.Syms.Mutexes),
	}
	var buf []byte
	for i := range ls.Runs {
		buf = e.appendRun(buf, &ls.Runs[i])
		if len(buf) >= 64<<10 || i == len(ls.Runs)-1 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("trace: encode execution %d: %w", i, err)
			}
			buf = buf[:0]
		}
	}
	return nil
}

// encoder holds the quoted symbol tables, and the current run's
// accesses grouped by call.
type encoder struct {
	funcs, objects, excs, mutexes quotedNames
	order, end                    []int32
	kinds                         []AccessKind
	injected                      []bool
}

// quotedNames are a symbol table's names as JSON strings, back to back:
// name i is buf[end[i-1]:end[i]] (from 0 for i = 0).
type quotedNames struct {
	buf []byte
	end []int32
}

func quoteNames[S ~string](names []S) quotedNames {
	q := quotedNames{end: make([]int32, len(names))}
	for i, name := range names {
		q.buf = AppendJSONString(q.buf, string(name), true)
		q.end[i] = int32(len(q.buf))
	}
	return q
}

// at returns name i quoted, and whether the name is empty.
func (q *quotedNames) at(i int32) ([]byte, bool) {
	var start int32
	if i > 0 {
		start = q.end[i-1]
	}
	s := q.buf[start:q.end[i]]
	return s, len(s) == 2
}

// appendRun appends run r's record and its newline.
func (e *encoder) appendRun(b []byte, r *LogRun) []byte {
	b = append(b, `{"id":`...)
	b = AppendJSONString(b, r.ID, true)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, r.Seed, 10)
	b = append(b, `,"outcome":`...)
	b = strconv.AppendInt(b, int64(r.Outcome), 10)
	if r.FailureSig != "" {
		b = append(b, `,"failureSig":`...)
		b = AppendJSONString(b, r.FailureSig, true)
	}
	l := &r.Log
	if l.Spans == nil {
		return append(b, `,"calls":null}`+"\n"...)
	}
	e.group(r)
	b = append(b, `,"calls":[`...)
	var from int32
	for j := range l.Spans {
		s := &l.Spans[j]
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"method":`...)
		name, _ := e.funcs.at(s.Fn)
		b = append(b, name...)
		b = append(b, `,"instance":`...)
		b = strconv.AppendInt(b, int64(s.Instance), 10)
		b = append(b, `,"thread":`...)
		b = strconv.AppendInt(b, int64(s.Thread), 10)
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, int64(s.Start), 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, int64(s.End), 10)
		if to := e.end[j]; to > from {
			b = append(b, `,"accesses":[`...)
			for k, i := range e.order[from:to] {
				if k > 0 {
					b = append(b, ',')
				}
				b = e.appendAccess(b, l, i)
			}
			b = append(b, ']')
			from = to
		}
		b = append(b, `,"return":{`...)
		if s.Return.Void {
			b = append(b, `"void":true,`...)
		}
		b = append(b, `"int":`...)
		b = strconv.AppendInt(b, s.Return.Int, 10)
		b = append(b, '}')
		if s.Exc >= 0 {
			if name, empty := e.excs.at(s.Exc); !empty {
				b = append(b, `,"exception":`...)
				b = append(b, name...)
			}
		}
		if e.injected != nil && e.injected[j] {
			b = append(b, `,"injected":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendAccess appends access i of l.
func (e *encoder) appendAccess(b []byte, l *RunLog, i int32) []byte {
	a := &l.Accesses[i]
	b = append(b, `{"object":`...)
	name, _ := e.objects.at(a.Obj)
	b = append(b, name...)
	b = append(b, `,"kind":`...)
	kind := AccessKind(a.Kind)
	if e.kinds != nil {
		kind = e.kinds[i]
	}
	b = strconv.AppendInt(b, int64(kind), 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, int64(a.At), 10)
	if mus := l.Lockset(a.Lockset); len(mus) > 0 {
		b = append(b, `,"locks":[`...)
		for k, mu := range mus {
			if k > 0 {
				b = append(b, ',')
			}
			name, _ := e.mutexes.at(mu)
			b = append(b, name...)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// group fills e.order with run r's access indices grouped by span, in
// log order within a span, and e.end[j] with where span j's end in it,
// as LogRun.Execution places them. e.injected marks the injected spans
// and e.kinds holds every access's kind, each only for a run that has
// any (nil otherwise).
func (e *encoder) group(r *LogRun) {
	l := &r.Log
	n := len(l.Spans)
	e.end = append(e.end[:0], make([]int32, n+1)...)
	for i := range l.Accesses {
		e.end[l.Accesses[i].Span+1]++
	}
	for j := 1; j <= n; j++ {
		e.end[j] += e.end[j-1]
	}
	// end[j] is where span j's accesses start until they are placed,
	// then where they end.
	e.order = append(e.order[:0], make([]int32, len(l.Accesses))...)
	for i := range l.Accesses {
		s := l.Accesses[i].Span
		e.order[e.end[s]] = int32(i)
		e.end[s]++
	}
	e.injected = nil
	if len(r.Injected) > 0 {
		e.injected = make([]bool, n)
		for _, j := range r.Injected {
			e.injected[j] = true
		}
	}
	e.kinds = nil
	if len(r.kinds) > 0 {
		e.kinds = make([]AccessKind, len(l.Accesses))
		kinds := r.kinds
		for i := range l.Accesses {
			e.kinds[i] = AccessKind(l.Accesses[i].Kind)
			if len(kinds) > 0 && kinds[0].access == int32(i) {
				e.kinds[i], kinds = kinds[0].kind, kinds[1:]
			}
		}
	}
}

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it: quote and backslash, control characters, U+2028 and
// U+2029, and each byte of invalid UTF-8 as \ufffd, plus the
// HTML-sensitive <, > and & when escapeHTML is set (encoding/json's
// default, which Encoder.SetEscapeHTML(false) turns off).
func AppendJSONString(b []byte, s string, escapeHTML bool) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && (!escapeHTML || c != '<' && c != '>' && c != '&') {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
