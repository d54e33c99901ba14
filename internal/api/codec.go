// Hand-rolled JSON codec for the hot API endpoints. The stdlib
// encoding/json decoder costs ~12 heap allocations per submit body; at tens
// of thousands of submissions per minute that is the dominant serving cost.
// This codec reads the body into a pooled buffer, converts it to a string
// once (the only retained allocation — parsed fields are substrings sharing
// that backing array), and renders responses into pooled buffers with no
// per-request encoder state. Alloc budgets are pinned by
// TestSubmitHandlerAllocBudget, TestStateHandlerAllocBudget and
// TestStatusHandlerAllocBudget.
package api

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"mastergreen/internal/repo"
)

// jsonContentType is assigned directly into response header maps
// (h["Content-Type"] = jsonContentType): a shared immutable slice, where
// Header.Set would allocate a fresh []string per call.
var jsonContentType = []string{"application/json"}

// bufPool recycles request-read and response-render scratch buffers.
var bufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > 1<<20 {
		return // don't let one giant body pin a giant buffer
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// readAll drains r into buf (which should come from bufPool), growing as
// needed, and returns the filled slice.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// jparser is a minimal JSON parser over a string. String values that contain
// no escapes are returned as substrings of the input — zero-copy; the caller
// owns the input string's lifetime.
type jparser struct {
	s string
	i int
}

func (p *jparser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("offset %d: "+format, append([]interface{}{p.i}, args...)...)
}

func (p *jparser) skipWS() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *jparser) peek() byte {
	if p.i < len(p.s) {
		return p.s[p.i]
	}
	return 0
}

func (p *jparser) expect(c byte) error {
	if p.i >= len(p.s) || p.s[p.i] != c {
		return p.errf("expected %q", string(c))
	}
	p.i++
	return nil
}

// parseString parses a JSON string at the cursor. The fast path (no escapes)
// returns a substring; escaped strings are decoded into a fresh string.
func (p *jparser) parseString() (string, error) {
	if p.peek() != '"' {
		return "", p.errf("expected string")
	}
	start := p.i + 1
	for j := start; j < len(p.s); j++ {
		c := p.s[j]
		if c == '"' {
			p.i = j + 1
			return p.s[start:j], nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
	}
	end := start
	for end < len(p.s) && p.s[end] != '"' {
		if p.s[end] == '\\' {
			end++ // skip the escaped character (quote included)
		}
		end++
	}
	if end >= len(p.s) {
		return "", p.errf("unterminated string")
	}
	out, err := unescapeJSON(p.s[start:end])
	if err != nil {
		return "", p.errf("%v", err)
	}
	p.i = end + 1
	return out, nil
}

// unescapeJSON decodes the backslash escapes of a JSON string body (the part
// between the quotes).
func unescapeJSON(s string) (string, error) {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("truncated escape")
		}
		switch s[i] {
		case '"', '\\', '/':
			b.WriteByte(s[i])
			i++
		case 'b':
			b.WriteByte('\b')
			i++
		case 'f':
			b.WriteByte('\f')
			i++
		case 'n':
			b.WriteByte('\n')
			i++
		case 'r':
			b.WriteByte('\r')
			i++
		case 't':
			b.WriteByte('\t')
			i++
		case 'u':
			if i+5 > len(s) {
				return "", fmt.Errorf("truncated \\u escape")
			}
			v, err := strconv.ParseUint(s[i+1:i+5], 16, 32)
			if err != nil {
				return "", fmt.Errorf("bad \\u escape")
			}
			i += 5
			r := rune(v)
			if utf16.IsSurrogate(r) && i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
				if v2, err := strconv.ParseUint(s[i+2:i+6], 16, 32); err == nil {
					if dec := utf16.DecodeRune(r, rune(v2)); dec != utf8.RuneError {
						r = dec
						i += 6
					}
				}
			}
			b.WriteRune(r)
		default:
			return "", fmt.Errorf("bad escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

// parseBool parses true/false at the cursor.
func (p *jparser) parseBool() (bool, error) {
	if strings.HasPrefix(p.s[p.i:], "true") {
		p.i += 4
		return true, nil
	}
	if strings.HasPrefix(p.s[p.i:], "false") {
		p.i += 5
		return false, nil
	}
	return false, p.errf("expected bool")
}

// numberEnd returns the index just past the number token starting at i.
func (p *jparser) numberEnd() int {
	j := p.i
	for j < len(p.s) {
		switch p.s[j] {
		case '-', '+', '.', 'e', 'E',
			'0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			j++
		default:
			return j
		}
	}
	return j
}

func (p *jparser) parseFloat() (float64, error) {
	end := p.numberEnd()
	v, err := strconv.ParseFloat(p.s[p.i:end], 64)
	if err != nil {
		return 0, p.errf("bad number")
	}
	p.i = end
	return v, nil
}

func (p *jparser) parseInt() (int, error) {
	end := p.numberEnd()
	v, err := strconv.ParseInt(p.s[p.i:end], 10, 64)
	if err != nil {
		return 0, p.errf("bad integer")
	}
	p.i = end
	return int(v), nil
}

// skipValue consumes any JSON value (for unknown keys).
func (p *jparser) skipValue() error {
	p.skipWS()
	switch c := p.peek(); {
	case c == '"':
		_, err := p.parseString()
		return err
	case c == '{':
		p.i++
		return p.skipContainer('}')
	case c == '[':
		p.i++
		return p.skipContainer(']')
	case c == 't' || c == 'f':
		_, err := p.parseBool()
		return err
	case c == 'n':
		if strings.HasPrefix(p.s[p.i:], "null") {
			p.i += 4
			return nil
		}
		return p.errf("bad literal")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := p.parseFloat()
		return err
	default:
		return p.errf("unexpected %q", string(c))
	}
}

// skipContainer consumes the remainder of an object or array whose opener
// was already consumed. Counting only this container's own bracket kind is
// enough: strings are parsed (so brackets inside them don't count), and the
// other bracket kind can only appear properly nested, never closing ours.
func (p *jparser) skipContainer(closer byte) error {
	opener := byte('{')
	if closer == ']' {
		opener = '['
	}
	depth := 1
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case '"':
			if _, err := p.parseString(); err != nil {
				return err
			}
			continue // parseString already advanced past the closing quote
		case opener:
			depth++
		case closer:
			depth--
			if depth == 0 {
				p.i++
				return nil
			}
		}
		p.i++
	}
	return p.errf("unterminated container")
}

// parseStringArray parses ["a","b",...] into out (appending).
func (p *jparser) parseStringArray() ([]string, error) {
	p.skipWS()
	if p.peek() == 'n' && strings.HasPrefix(p.s[p.i:], "null") {
		p.i += 4
		return nil, nil
	}
	if err := p.expect('['); err != nil {
		return nil, err
	}
	var out []string
	p.skipWS()
	if p.peek() == ']' {
		p.i++
		return out, nil
	}
	for {
		p.skipWS()
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		p.skipWS()
		switch p.peek() {
		case ',':
			p.i++
		case ']':
			p.i++
			return out, nil
		default:
			return nil, p.errf("expected , or ]")
		}
	}
}

// parseFileChange parses one {"path":...,"op":...} object into fc.
func (p *jparser) parseFileChange(fc *FileChange) error {
	p.skipWS()
	if err := p.expect('{'); err != nil {
		return err
	}
	p.skipWS()
	if p.peek() == '}' {
		p.i++
		return nil
	}
	for {
		p.skipWS()
		key, err := p.parseString()
		if err != nil {
			return err
		}
		p.skipWS()
		if err := p.expect(':'); err != nil {
			return err
		}
		p.skipWS()
		switch key {
		case "path":
			fc.Path, err = p.parseString()
		case "op":
			fc.Op, err = p.parseString()
		case "base_content":
			fc.BaseContent, err = p.parseString()
		case "content":
			fc.Content, err = p.parseString()
		case "start_line":
			fc.StartLine, err = p.parseInt()
		case "old_lines":
			fc.OldLines, err = p.parseStringArray()
		case "new_lines":
			fc.NewLines, err = p.parseStringArray()
		default:
			err = p.skipValue()
		}
		if err != nil {
			return err
		}
		p.skipWS()
		switch p.peek() {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return p.errf("expected , or }")
		}
	}
}

// parseSubmitRequest parses a submit body into req. Field substrings share
// body's backing array, so body must outlive req — the handler converts the
// pooled read buffer to a string precisely so this holds.
func parseSubmitRequest(body string, req *SubmitRequest) error {
	p := jparser{s: body}
	p.skipWS()
	if err := p.expect('{'); err != nil {
		return err
	}
	p.skipWS()
	if p.peek() == '}' {
		return nil
	}
	for {
		p.skipWS()
		key, err := p.parseString()
		if err != nil {
			return err
		}
		p.skipWS()
		if err := p.expect(':'); err != nil {
			return err
		}
		p.skipWS()
		switch key {
		case "id":
			req.ID, err = p.parseString()
		case "author":
			req.Author, err = p.parseString()
		case "team":
			req.Team, err = p.parseString()
		case "description":
			req.Description, err = p.parseString()
		case "test_plan":
			req.TestPlan, err = p.parseBool()
		case "revert_plan":
			req.RevertPlan, err = p.parseBool()
		case "benefit":
			req.Benefit, err = p.parseFloat()
		case "priority":
			req.Priority, err = p.parseString()
		case "deadline_in_sec":
			req.DeadlineInSec, err = p.parseFloat()
		case "files":
			err = p.parseFiles(req)
		default:
			err = p.skipValue()
		}
		if err != nil {
			return err
		}
		p.skipWS()
		switch p.peek() {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return p.errf("expected , or }")
		}
	}
}

// parseFiles parses the files array, converting each edit straight into
// repo form (req.patch) — the intermediate []FileChange never materializes
// on the serving path.
func (p *jparser) parseFiles(req *SubmitRequest) error {
	p.skipWS()
	if p.peek() == 'n' && strings.HasPrefix(p.s[p.i:], "null") {
		p.i += 4
		return nil
	}
	if err := p.expect('['); err != nil {
		return err
	}
	p.skipWS()
	if p.peek() == ']' {
		p.i++
		return nil
	}
	// One file per request is the common shape; start small and grow.
	if req.patch.Changes == nil {
		req.patch.Changes = make([]repo.FileChange, 0, 2)
	}
	for {
		var fc FileChange
		if err := p.parseFileChange(&fc); err != nil {
			return err
		}
		rfc, err := convertFile(&fc)
		if err != nil {
			return err
		}
		req.patch.Changes = append(req.patch.Changes, rfc)
		req.nFiles++
		p.skipWS()
		switch p.peek() {
		case ',':
			p.i++
		case ']':
			p.i++
			return nil
		default:
			return p.errf("expected , or ]")
		}
	}
}

// appendJSONString appends s as a quoted, escaped JSON string.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form only for very small
// or very large magnitudes. (Every Stats gauge is finite.)
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, f, format, -1, 64)
}
