package trace

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decoder reads execution records into log form. Each line is parsed
// in one pass into a record (rec) that mirrors an Execution the way
// encoding/json fills one, names held as bytes of the line, and the
// record is then appended to the corpus the way Intern appends an
// execution: names interned in Intern's order, and the run's spans,
// accesses and locksets in arrays of exactly its size, which logSet
// moves into one array per kind.
//
// The record reproduces encoding/json's assignment rules, which decide
// what a repeated key leaves behind. A later scalar replaces an
// earlier one, null leaves a scalar or struct as it is and empties a
// slice, and a later object merges into the struct it names. A later
// array decodes element by element into the slice's backing array: an
// element an earlier array wrote is merged into, one beyond every
// earlier array's length starts zero, and an empty array replaces the
// backing array. list keeps that high-water mark, and its items are
// reused from line to line, so a steady-state line allocates nothing.
type decoder struct {
	data []byte // the line
	pos  int
	buf  []byte // the line's strings that needed unescaping
	// stack holds the containers a skipped value has open.
	stack []byte
	rec   execRec

	// The corpus so far. strs holds every run's ID then failure
	// signature, back to back: run i's end at ends[i], and logSet
	// carves them from one string.
	runs []LogRun
	strs []byte
	ends [][2]int
	syms Symbols
	// fns are the method names as first seen; logSet renumbers them
	// to name order.
	fns                          []string
	fnIdx, objIdx, excIdx, muIdx map[string]int32
}

// execRec, callRec and accRec are an Execution, a MethodCall and an
// Access as a line's record holds them.
type execRec struct {
	id, sig []byte
	seed    int64
	outcome Outcome
	calls   list[callRec]
}

type callRec struct {
	method, exc []byte
	instance    int
	thread      ThreadID
	start, end  Time
	ret         Value
	injected    bool
	accs        list[accRec]
}

type accRec struct {
	object []byte
	kind   AccessKind
	at     Time
	locks  list[[]byte]
}

// list is a slice field of a record: items are the elements its
// backing array holds (the high-water mark of the arrays decoded into
// it since the backing array was last replaced), n its length, and set
// whether it is non-nil.
type list[T any] struct {
	items []T
	n     int
	set   bool
}

// elem returns element i of an array being decoded into l, i at most
// the high-water mark, and whether it is new to the backing array and
// so must be cleared: an item left by an earlier line.
func (l *list[T]) elem(i int) (*T, bool) {
	if i < len(l.items) {
		return &l.items[i], false
	}
	if i < cap(l.items) {
		l.items = l.items[:i+1]
	} else {
		var zero T
		l.items = append(l.items, zero)
	}
	return &l.items[i], true
}

// end sets l to the n elements an array held. encoding/json gives an
// empty array a fresh slice, so nothing earlier survives it.
func (l *list[T]) end(n int) {
	l.n, l.set = n, true
	if n == 0 {
		l.items = l.items[:0]
	}
}

// null sets l to nil.
func (l *list[T]) null() { l.items, l.n, l.set = l.items[:0], 0, false }

func (c *callRec) clear() { *c = callRec{accs: list[accRec]{items: c.accs.items[:0]}} }

func (a *accRec) clear() { *a = accRec{locks: list[[]byte]{items: a.locks.items[:0]}} }

func newDecoder() *decoder {
	return &decoder{
		fnIdx:  map[string]int32{},
		objIdx: map[string]int32{},
		excIdx: map[string]int32{},
		muIdx:  map[string]int32{},
	}
}

// maxDepth is encoding/json's nesting limit: a line whose arrays and
// objects nest deeper is rejected.
const maxDepth = 10000

// field names a key of the record schema. Keys match their field's
// name as encoding/json matches them, ignoring case.
type field uint8

const (
	fUnknown field = iota
	fID
	fSeed
	fOutcome
	fFailureSig
	fCalls
	fMethod
	fInstance
	fThread
	fStart
	fEnd
	fAccesses
	fReturn
	fException
	fInjected
	fObject
	fKind
	fAt
	fLocks
	fVoid
	fInt
)

// fieldOf returns the field a key names. It is a constant, never the
// key itself, so matching allocates nothing.
func fieldOf(k []byte) field {
	switch string(k) {
	case "id":
		return fID
	case "seed":
		return fSeed
	case "outcome":
		return fOutcome
	case "failureSig":
		return fFailureSig
	case "calls":
		return fCalls
	case "method":
		return fMethod
	case "instance":
		return fInstance
	case "thread":
		return fThread
	case "start":
		return fStart
	case "end":
		return fEnd
	case "accesses":
		return fAccesses
	case "return":
		return fReturn
	case "exception":
		return fException
	case "injected":
		return fInjected
	case "object":
		return fObject
	case "kind":
		return fKind
	case "at":
		return fAt
	case "locks":
		return fLocks
	case "void":
		return fVoid
	case "int":
		return fInt
	}
	return foldedField(k)
}

// foldedField matches a key case-insensitively, as encoding/json does:
// the key and the field names are folded as bytes.EqualFold folds them
// (so the Kelvin sign matches "k"), and every field name is ASCII.
func foldedField(k []byte) field {
	var arr [16]byte
	out := arr[:0]
	for i := 0; i < len(k); {
		c := k[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			i++
		} else {
			r, n := utf8.DecodeRune(k[i:])
			if r = foldRune(r); r >= utf8.RuneSelf {
				return fUnknown
			}
			c = byte(r)
			i += n
		}
		if len(out) == len("FAILURESIG") {
			return fUnknown
		}
		out = append(out, c)
	}
	for f, name := range foldedNames {
		if name == string(out) {
			return field(f)
		}
	}
	return fUnknown
}

// foldedNames are the fields' names folded, by field.
var foldedNames = [...]string{
	fID: "ID", fSeed: "SEED", fOutcome: "OUTCOME", fFailureSig: "FAILURESIG", fCalls: "CALLS",
	fMethod: "METHOD", fInstance: "INSTANCE", fThread: "THREAD", fStart: "START", fEnd: "END",
	fAccesses: "ACCESSES", fReturn: "RETURN", fException: "EXCEPTION", fInjected: "INJECTED",
	fObject: "OBJECT", fKind: "KIND", fAt: "AT", fLocks: "LOCKS", fVoid: "VOID", fInt: "INT",
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// syntaxError is a line that is not one JSON value; typeError a value
// that does not fit the record's field.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

func (d *decoder) syntax(msg string) error { return &syntaxError{msg, d.pos} }

func (d *decoder) unexpected(context string) error {
	if d.pos >= len(d.data) {
		return &syntaxError{"unexpected end of record " + context, d.pos}
	}
	return &syntaxError{fmt.Sprintf("invalid character %q %s", d.data[d.pos], context), d.pos}
}

var errRange = errors.New("number out of range")

func (d *decoder) typeError(want string) error {
	if d.pos < len(d.data) {
		return fmt.Errorf("value at offset %d: want %s", d.pos, want)
	}
	return d.unexpected("looking for a value")
}

// peek returns the byte at the read position, 0 at the end of the line
// (a NUL byte is as invalid there as the end).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// record parses one line and appends its run to the corpus.
func (d *decoder) record(line []byte) error {
	d.data, d.pos, d.buf = line, 0, d.buf[:0]
	r := &d.rec
	r.id, r.sig, r.seed, r.outcome = nil, nil, 0, 0
	r.calls.null()
	d.ws()
	switch d.peek() {
	case '{':
		if err := d.exec(r); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.typeError("an execution record object")
	}
	d.ws()
	if d.pos < len(d.data) {
		return d.unexpected("after the record")
	}
	d.commit()
	return nil
}

// member reads up to the value of an object's next member, the first
// right after the opening brace, and returns its key's field. It
// reports false at the closing brace.
func (d *decoder) member(first bool) (field, bool, error) {
	d.ws()
	c := d.peek()
	if c == '}' {
		d.pos++
		return 0, false, nil
	}
	if !first {
		if c != ',' {
			return 0, false, d.unexpected("after an object value")
		}
		d.pos++
		d.ws()
		c = d.peek()
	}
	if c != '"' {
		return 0, false, d.unexpected("looking for an object key")
	}
	f, err := d.key()
	if err != nil {
		return 0, false, err
	}
	d.ws()
	if d.peek() != ':' {
		return 0, false, d.unexpected("after an object key")
	}
	d.pos++
	d.ws()
	return f, true, nil
}

// next reads up to an array's next element, the first right after the
// opening bracket. It reports false at the closing bracket.
func (d *decoder) next(first bool) (bool, error) {
	d.ws()
	c := d.peek()
	if c == ']' {
		d.pos++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.unexpected("after an array element")
		}
		d.pos++
		d.ws()
	}
	return true, nil
}

// open reads the opening brace of a record object, or the null that
// leaves it as it is (false).
func (d *decoder) open(want string) (bool, error) {
	switch d.peek() {
	case '{':
		d.pos++
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.typeError(want)
}

// openArray reads the opening bracket of a slice field, or the null
// that empties it (false).
func (d *decoder) openArray(want string) (bool, error) {
	switch d.peek() {
	case '[':
		d.pos++
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.typeError(want)
}

// exec parses an execution record's object, at depth 1.
func (d *decoder) exec(r *execRec) error {
	d.pos++
	for first := true; ; first = false {
		f, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch f {
		case fID:
			err = d.str(&r.id)
		case fSeed:
			err = readInt(d, &r.seed)
		case fOutcome:
			err = readInt(d, &r.outcome)
		case fFailureSig:
			err = d.str(&r.sig)
		case fCalls:
			err = array(d, &r.calls, "an array of calls", (*callRec).clear, d.call)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

// array decodes a slice field's array into l, as encoding/json decodes
// into a slice: clear readies an element new to the backing array and
// elem decodes each element. null empties l. The calls array sits at
// depth 2, a call's accesses at 4 and an access's locks at 6.
func array[T any](d *decoder, l *list[T], want string, clear func(*T), elem func(*T) error) error {
	ok, err := d.openArray(want)
	if !ok {
		if err == nil {
			l.null()
		}
		return err
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.next(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		e, fresh := l.elem(i)
		if fresh {
			clear(e)
		}
		if err := elem(e); err != nil {
			return err
		}
		i++
	}
	l.end(i)
	return nil
}

func clearName(name *[]byte) { *name = nil }

// call parses a call object, at depth 3.
func (d *decoder) call(c *callRec) error {
	ok, err := d.open("a call object")
	if !ok {
		return err
	}
	for first := true; ; first = false {
		f, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch f {
		case fMethod:
			err = d.str(&c.method)
		case fInstance:
			err = readInt(d, &c.instance)
		case fThread:
			err = readInt(d, &c.thread)
		case fStart:
			err = readInt(d, &c.start)
		case fEnd:
			err = readInt(d, &c.end)
		case fAccesses:
			err = array(d, &c.accs, "an array of accesses", (*accRec).clear, d.access)
		case fReturn:
			err = d.value(&c.ret)
		case fException:
			err = d.str(&c.exc)
		case fInjected:
			err = d.boolean(&c.injected)
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// value parses a return value object, at depth 4.
func (d *decoder) value(v *Value) error {
	ok, err := d.open("a return value object")
	if !ok {
		return err
	}
	for first := true; ; first = false {
		f, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch f {
		case fVoid:
			err = d.boolean(&v.Void)
		case fInt:
			err = readInt(d, &v.Int)
		default:
			err = d.skip(4)
		}
		if err != nil {
			return err
		}
	}
}

// access parses an access object, at depth 5.
func (d *decoder) access(a *accRec) error {
	ok, err := d.open("an access object")
	if !ok {
		return err
	}
	for first := true; ; first = false {
		f, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch f {
		case fObject:
			err = d.str(&a.object)
		case fKind:
			err = readInt(d, &a.kind)
		case fAt:
			err = readInt(d, &a.at)
		case fLocks:
			err = array(d, &a.locks, "an array of lock names", clearName, d.str)
		default:
			err = d.skip(5)
		}
		if err != nil {
			return err
		}
	}
}

// literal reads the literal lit (true, false or null).
func (d *decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return d.unexpected("in literal " + lit)
	}
	d.pos += len(lit)
	return nil
}

// boolean reads a bool field; null leaves it as it is.
func (d *decoder) boolean(v *bool) error {
	switch d.peek() {
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.typeError("a bool")
}

// str reads a string field; null leaves it as it is.
func (d *decoder) str(v *[]byte) error {
	switch d.peek() {
	case '"':
		s, err := d.quoted()
		if err != nil {
			return err
		}
		*v = s
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.typeError("a string")
}

// readInt reads an integer field: a JSON number with no fraction or
// exponent, in the range of the field's type. null leaves it as it is.
func readInt[T ~int | ~int64](d *decoder, v *T) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.typeError("an integer")
	}
	start := d.pos
	neg := c == '-'
	if neg {
		d.pos++
	}
	var u uint64
	digits := 0
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			u = u*10 + uint64(d.data[d.pos]-'0')
			digits++
			d.pos++
			if digits > 19 {
				// Past 19 digits the value is out of int64's range.
				return errRange
			}
		}
	default:
		return d.unexpected("in numeric literal")
	}
	switch d.peek() {
	case '.', 'e', 'E':
		d.pos = start
		return d.typeError("an integer")
	}
	var n int64
	switch {
	case !neg && u <= 1<<63-1:
		n = int64(u)
	case neg && u <= 1<<63:
		n = int64(-u)
	default:
		return errRange
	}
	if int64(T(n)) != n {
		return errRange
	}
	*v = T(n)
	return nil
}

// key reads an object key and returns the field it names.
func (d *decoder) key() (field, error) {
	i := d.pos + 1
	for i < len(d.data) {
		c := d.data[i]
		if c == '"' {
			f := fieldOf(d.data[d.pos+1 : i])
			d.pos = i + 1
			return f, nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	mark := len(d.buf)
	k, err := d.quoted()
	if err != nil {
		return 0, err
	}
	f := fieldOf(k)
	d.buf = d.buf[:mark]
	return f, nil
}

// quoted reads a string at the read position and returns its contents:
// escapes decoded, surrogate pairs joined, and each byte of invalid
// UTF-8 and each lone surrogate replaced by U+FFFD, as encoding/json
// unquotes. A string with none of these is returned from the line
// itself; the others are unescaped into buf.
func (d *decoder) quoted() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	i := start
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return data[start:i:i], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	b0 := len(d.buf)
	d.buf = append(d.buf, data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.buf[b0:len(d.buf):len(d.buf)], nil
		case c == '\\':
			if i+1 >= len(data) {
				d.pos = i + 1
				return nil, d.unexpected("in string escape code")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				d.buf = append(d.buf, e)
			case 'b':
				d.buf = append(d.buf, '\b')
			case 'f':
				d.buf = append(d.buf, '\f')
			case 'n':
				d.buf = append(d.buf, '\n')
			case 'r':
				d.buf = append(d.buf, '\r')
			case 't':
				d.buf = append(d.buf, '\t')
			case 'u':
				r := hex4(data, i)
				if r < 0 {
					d.pos = i
					return nil, d.unexpected("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r = utf16.DecodeRune(r, hex4(data, i))
					if r != unicode.ReplacementChar {
						i += 6
					}
				}
				d.buf = utf8.AppendRune(d.buf, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.unexpected("in string escape code")
			}
			i += 2
		case c < 0x20:
			d.pos = i
			return nil, d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			d.buf = append(d.buf, c)
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				d.buf = utf8.AppendRune(d.buf, r)
			} else {
				d.buf = append(d.buf, data[i:i+n]...)
			}
			i += n
		}
	}
	d.pos = i
	return nil, d.unexpected("in string literal")
}

// hex4 returns the code unit of the \uXXXX escape at data[i:], or -1.
func hex4(data []byte, i int) rune {
	if len(data)-i < 6 || data[i] != '\\' || data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skipNumber reads a JSON number and returns the position after it;
// the position is left where the number is malformed.
func (d *decoder) skipNumber() int {
	data := d.data
	i := d.pos
	digits := func() bool {
		j := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		digits()
	default:
		return -1 - i
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return -1 - i
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return -1 - i
		}
	}
	return i
}

// skip reads a value of a key no field takes, inside depth open
// containers, and checks that it is well-formed JSON. It keeps the
// containers the value opens on a stack, not the goroutine's, so a
// line of 64 MiB of brackets fails at depth maxDepth like any other.
func (d *decoder) skip(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack[:0] }()
	for {
		// A value.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if depth+len(stack)+1 > maxDepth {
				return d.syntax("exceeded max depth")
			}
			d.pos++
			d.ws()
			if d.peek() == c+2 { // '}' is '{'+2, ']' is '['+2
				d.pos++
				break
			}
			stack = append(stack, c)
			if c == '{' {
				if err := d.skipKey(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			mark := len(d.buf)
			if _, err := d.quoted(); err != nil {
				return err
			}
			d.buf = d.buf[:mark]
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			end := d.skipNumber()
			if end < 0 {
				d.pos = -1 - end
				return d.unexpected("in numeric literal")
			}
			d.pos = end
		default:
			return d.unexpected("looking for a value")
		}
		// After a value: close what it ends, up to the next element or
		// member.
		for {
			if len(stack) == 0 {
				return nil
			}
			d.ws()
			top := stack[len(stack)-1]
			c := d.peek()
			if c == ',' {
				d.pos++
				d.ws()
				if top == '{' {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				return d.unexpected("after a value")
			}
			d.pos++
			stack = stack[:len(stack)-1]
		}
	}
}

// skipKey reads an object key and its colon, up to the member's value.
func (d *decoder) skipKey() error {
	if d.peek() != '"' {
		return d.unexpected("looking for an object key")
	}
	mark := len(d.buf)
	if _, err := d.quoted(); err != nil {
		return err
	}
	d.buf = d.buf[:mark]
	d.ws()
	if d.peek() != ':' {
		return d.unexpected("after an object key")
	}
	d.pos++
	d.ws()
	return nil
}

// commit appends the line's record to the corpus as Intern appends an
// execution.
func (d *decoder) commit() {
	r := &d.rec
	d.strs = append(d.strs, r.id...)
	idEnd := len(d.strs)
	d.strs = append(d.strs, r.sig...)
	d.ends = append(d.ends, [2]int{idEnd, len(d.strs)})
	calls := r.calls.items[:r.calls.n]
	var nAccs, nLockIDs, nLocksets int
	for j := range calls {
		for _, a := range calls[j].accs.items[:calls[j].accs.n] {
			nAccs++
			if a.locks.n > 0 {
				nLockIDs += a.locks.n
				nLocksets++
			}
		}
	}
	run := LogRun{Seed: r.seed, Outcome: r.outcome}
	l := &run.Log
	if r.calls.set {
		l.Spans = make([]Span, len(calls))
	}
	l.Accesses = make([]SpanAccess, nAccs)
	l.LockIDs = make([]int32, 0, nLockIDs)
	l.LockEnd = make([]int32, 0, nLocksets)
	fn, obj := int32(-1), int32(-1)
	k := 0
	for j := range calls {
		c := &calls[j]
		if fn < 0 || string(c.method) != d.fns[fn] {
			fn = intern(d.fnIdx, &d.fns, c.method)
		}
		sp := &l.Spans[j]
		sp.Fn, sp.Exc = fn, -1
		if len(c.exc) > 0 {
			sp.Exc = intern(d.excIdx, &d.syms.Exceptions, c.exc)
		}
		sp.Instance, sp.Thread = c.instance, c.thread
		sp.Start, sp.End, sp.Return = c.start, c.end, c.ret
		if c.injected {
			run.Injected = append(run.Injected, int32(j))
		}
		for _, a := range c.accs.items[:c.accs.n] {
			if obj < 0 || string(a.object) != string(d.syms.Objects[obj]) {
				obj = intern(d.objIdx, &d.syms.Objects, a.object)
			}
			sa := &l.Accesses[k]
			sa.Span, sa.Obj, sa.Lockset, sa.At = int32(j), obj, -1, a.at
			switch a.kind {
			case Read:
			case Write:
				sa.Kind = uint8(Write)
			default:
				run.kinds = append(run.kinds, kindAt{int32(k), a.kind})
			}
			if a.locks.n > 0 {
				for _, mu := range a.locks.items[:a.locks.n] {
					l.LockIDs = append(l.LockIDs, intern(d.muIdx, &d.syms.Mutexes, mu))
				}
				sa.Lockset = int32(len(l.LockEnd))
				l.LockEnd = append(l.LockEnd, int32(len(l.LockIDs)))
			}
			k++
		}
	}
	d.runs = append(d.runs, run)
}

// intern returns name's id in idx, giving it the next one, and
// appending it to names, when it is new: a map probe, and an
// allocation only for a new name.
func intern[S ~string](idx map[string]int32, names *[]S, name []byte) int32 {
	if id, ok := idx[string(name)]; ok {
		return id
	}
	s := string(name)
	id := int32(len(*names))
	idx[s] = id
	*names = append(*names, S(s))
	return id
}

// logSet returns the decoded corpus as Intern builds it: methods
// renumbered to name order, and every run's logs moved into one
// exact-size array per kind, so the corpus keeps a few large arrays
// rather than four small ones per run.
func (d *decoder) logSet() *LogSet {
	ls := &LogSet{Syms: d.syms, Runs: make([]LogRun, len(d.runs))}
	copy(ls.Runs, d.runs)
	// As Intern's slices.Clone: nil without methods, and the capacity
	// append gives.
	ls.Syms.Funcs = append([]string(nil), d.fns...)
	slices.Sort(ls.Syms.Funcs)
	rank := make([]int32, len(d.fns))
	for id, m := range d.fns {
		r, _ := slices.BinarySearch(ls.Syms.Funcs, m)
		rank[id] = int32(r)
	}
	var nSpans, nAccs, nLockIDs, nLocksets int
	for i := range ls.Runs {
		l := &ls.Runs[i].Log
		nSpans += len(l.Spans)
		nAccs += len(l.Accesses)
		nLockIDs += len(l.LockIDs)
		nLocksets += len(l.LockEnd)
	}
	spans := make([]Span, 0, nSpans)
	accs := make([]SpanAccess, 0, nAccs)
	lockIDs := make([]int32, 0, nLockIDs)
	lockEnd := make([]int32, 0, nLocksets)
	strs := string(d.strs)
	from := 0
	for i := range ls.Runs {
		r := &ls.Runs[i]
		end := d.ends[i]
		r.ID, r.FailureSig = strs[from:end[0]], strs[end[0]:end[1]]
		from = end[1]
		l := &r.Log
		if l.Spans != nil {
			f := len(spans)
			for _, sp := range l.Spans {
				sp.Fn = rank[sp.Fn]
				spans = append(spans, sp)
			}
			l.Spans = spans[f:len(spans):len(spans)]
		}
		l.Accesses = carve(&accs, l.Accesses)
		l.LockIDs = carve(&lockIDs, l.LockIDs)
		l.LockEnd = carve(&lockEnd, l.LockEnd)
	}
	return ls
}

// carve appends s to the arena and returns its copy there.
func carve[T any](arena *[]T, s []T) []T {
	f := len(*arena)
	*arena = append(*arena, s...)
	return (*arena)[f:len(*arena):len(*arena)]
}
