package scenario

import (
	"fmt"
	"strings"
)

// node is one vertex of the parsed document tree: a scalar, a mapping
// (with key order preserved), or a sequence. Every node remembers the
// position of its first byte for error messages.
type node struct {
	line, col int

	scalar string
	isScal bool
	keys   []string
	vals   map[string]*node
	keyPos map[string][2]int
	items  []*node
	isSeq  bool
}

func (n *node) isMap() bool { return !n.isSeq && !n.isScal }

// pos returns the recorded position of key k, falling back to the
// node's own position.
func (n *node) pos(k string) (int, int) {
	if p, ok := n.keyPos[k]; ok {
		return p[0], p[1]
	}
	return n.line, n.col
}

// Parse reads one scenario file in the strict YAML subset. The
// returned error is a *ParseError for malformed syntax or a
// *SemanticError for a well-formed file describing an invalid
// scenario. Both layers stop at their first problem by panicking with
// it; Parse recovers it.
func Parse(name string, data []byte) (f *File, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *ParseError, *SemanticError:
			f, err = nil, r.(error)
		default:
			panic(r)
		}
	}()
	p := &yparser{file: name}
	return bind(name, p.tree(data)), nil
}

// ---- YAML-subset front end ----

type line struct {
	no     int
	indent int
	text   string // content with indentation stripped
}

type yparser struct {
	file  string
	lines []line
	pos   int
}

func (p *yparser) fail(no, col int, format string, args ...any) {
	panic(&ParseError{File: p.file, Line: no, Col: col, Msg: fmt.Sprintf(format, args...)})
}

// tree tokenizes and parses the YAML subset into a node tree.
func (p *yparser) tree(data []byte) *node {
	p.logicalLines(data)
	if len(p.lines) == 0 {
		p.fail(1, 1, "empty scenario file")
	}
	root := p.block(0)
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		p.fail(l.no, l.indent+1, "unexpected indentation %d", l.indent)
	}
	return root
}

// logicalLines strips comments and blank lines and measures
// indentation. Tabs anywhere in indentation are parse errors.
func (p *yparser) logicalLines(data []byte) {
	for no, raw := range strings.Split(string(data), "\n") {
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			p.fail(no+1, indent+1, "tab in indentation (use spaces)")
		}
		text := strings.TrimRight(p.stripComment(no+1, indent, raw[indent:]), " \r")
		if text == "" {
			continue
		}
		if indent%2 != 0 {
			p.fail(no+1, indent+1, "odd indentation %d (indent in steps of two spaces)", indent)
		}
		p.lines = append(p.lines, line{no: no + 1, indent: indent, text: text})
	}
}

// stripComment removes a trailing `# ...` comment, respecting double
// quotes.
func (p *yparser) stripComment(no, col int, s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '#':
			if !inQuote {
				return s[:i]
			}
		}
	}
	if inQuote {
		p.fail(no, col+len(s), "unterminated string")
	}
	return s
}

// isItem reports whether a line opens a sequence item.
func isItem(text string) bool { return text == "-" || strings.HasPrefix(text, "- ") }

// collection returns an empty mapping or sequence node at line:col.
func collection(line, col int, isSeq bool) *node {
	return &node{line: line, col: col, isSeq: isSeq,
		vals: map[string]*node{}, keyPos: map[string][2]int{}}
}

// block parses the run of sibling lines at exactly the given indent
// into one mapping or sequence node.
func (p *yparser) block(indent int) *node {
	first := p.lines[p.pos]
	n := collection(first.no, first.indent+1, isItem(first.text))
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			p.fail(l.no, l.indent+1, "unexpected indentation %d, want %d", l.indent, indent)
		}
		if isItem(l.text) != n.isSeq {
			p.fail(l.no, l.indent+1, "cannot mix sequence items and mapping keys in one block")
		}
		if n.isSeq {
			n.items = append(n.items, p.seqItem(l, indent))
		} else {
			p.mapEntry(n, l, indent)
		}
	}
	return n
}

// seqItem parses one `- ...` line (plus any nested block) into a node.
func (p *yparser) seqItem(l line, indent int) *node {
	rest := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
	if rest == "" {
		// `-` alone: the item is the nested block two spaces deeper.
		p.pos++
		if p.pos >= len(p.lines) || p.lines[p.pos].indent != indent+2 {
			p.fail(l.no, l.indent+1, "empty sequence item")
		}
		return p.block(indent + 2)
	}
	if key, val, ok := p.splitKey(l, l.indent+2, rest); ok {
		// `- key: ...`: a mapping item whose first entry sits inline;
		// its remaining keys follow at the dash indent + 2.
		item := collection(l.no, l.indent+3, false)
		p.mapEntryFrom(item, l, indent+2, key, val, l.indent+2)
		for p.pos < len(p.lines) && p.lines[p.pos].indent == indent+2 && !isItem(p.lines[p.pos].text) {
			p.mapEntry(item, p.lines[p.pos], indent+2)
		}
		return item
	}
	// Plain scalar item.
	p.pos++
	return p.scalarNode(l.no, l.indent+3, rest)
}

// mapEntry parses one `key: ...` line (plus any nested block) into n.
func (p *yparser) mapEntry(n *node, l line, indent int) {
	key, val, ok := p.splitKey(l, l.indent, l.text)
	if !ok {
		p.fail(l.no, l.indent+1, "expected `key: value`, got %q", l.text)
	}
	p.mapEntryFrom(n, l, indent, key, val, l.indent)
}

// mapEntryFrom records one key (already split) and parses its value,
// which is either inline or the nested block two spaces deeper.
func (p *yparser) mapEntryFrom(n *node, l line, indent int, key, val string, keyCol int) {
	if _, dup := n.vals[key]; dup {
		p.fail(l.no, keyCol+1, "duplicate key %q", key)
	}
	p.pos++
	var child *node
	switch {
	case val != "":
		child = p.scalarNode(l.no, keyCol+len(key)+3, val)
	case p.pos < len(p.lines) && p.lines[p.pos].indent > indent:
		child = p.block(indent + 2)
	default:
		p.fail(l.no, keyCol+1, "key %q has no value", key)
	}
	n.keys = append(n.keys, key)
	n.vals[key] = child
	n.keyPos[key] = [2]int{l.no, keyCol + 1}
}

// splitKey splits `key: value` / `key:`; ok is false when the text is
// not a mapping entry at all.
func (p *yparser) splitKey(l line, col int, text string) (key, val string, ok bool) {
	i := strings.Index(text, ":")
	if i < 0 {
		return "", "", false
	}
	key = text[:i]
	if key == "" || strings.ContainsAny(key, " \"[]{}") {
		return "", "", false
	}
	rest := text[i+1:]
	if rest != "" && !strings.HasPrefix(rest, " ") {
		p.fail(l.no, col+i+2, "missing space after %q", key+":")
	}
	return key, strings.TrimPrefix(rest, " "), true
}

// scalarNode parses an inline value: a quoted string, an inline
// `[a, b]` list of scalars, or a plain token.
func (p *yparser) scalarNode(no, col int, text string) *node {
	switch {
	case strings.HasPrefix(text, "["):
		if !strings.HasSuffix(text, "]") {
			p.fail(no, col+len(text), "unterminated inline list")
		}
		n := collection(no, col, true)
		body := strings.TrimSpace(text[1 : len(text)-1])
		if body == "" {
			return n
		}
		for _, part := range strings.Split(body, ",") {
			part = strings.TrimSpace(part)
			if part == "" || strings.ContainsAny(part, "[]\"") {
				p.fail(no, col, "inline lists hold plain scalars separated by commas")
			}
			n.items = append(n.items, &node{line: no, col: col, isScal: true, scalar: part})
		}
		return n
	case strings.HasPrefix(text, "\""):
		s, err := unquote(text)
		if err != nil {
			p.fail(no, col, "%v", err)
		}
		return &node{line: no, col: col, isScal: true, scalar: s}
	default:
		return &node{line: no, col: col, isScal: true, scalar: text}
	}
}

// unquote decodes a double-quoted scalar with \", \\, \n, \t escapes.
func unquote(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("malformed quoted string %q", s)
	}
	var b strings.Builder
	body := s[1 : len(s)-1]
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			if c == '"' {
				return "", fmt.Errorf("unescaped quote inside string %q", s)
			}
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling escape in %q", s)
		}
		switch body[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return b.String(), nil
}
