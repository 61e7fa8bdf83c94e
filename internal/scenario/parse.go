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

	scalar  string
	isScal  bool
	keys    []string
	vals    map[string]*node
	keyPos  map[string][2]int
	items   []*node
	isSeq   bool
	started bool // mapping or sequence has been opened
}

func (n *node) isMap() bool { return n.started && !n.isSeq && !n.isScal }

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
// scenario.
func Parse(name string, data []byte) (*File, error) {
	root, err := yamlTree(name, data)
	if err != nil {
		return nil, err
	}
	return bind(name, root)
}

// ---- YAML-subset front end ----

type line struct {
	no     int
	indent int
	text   string // content with indentation stripped
}

// yamlTree tokenizes and parses the YAML subset into a node tree.
func yamlTree(name string, data []byte) (*node, error) {
	lines, err := logicalLines(name, data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, &ParseError{File: name, Line: 1, Col: 1, Msg: "empty scenario file"}
	}
	p := &yparser{file: name, lines: lines}
	root, err := p.block(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, &ParseError{File: name, Line: l.no, Col: l.indent + 1,
			Msg: fmt.Sprintf("unexpected indentation %d", l.indent)}
	}
	return root, nil
}

// logicalLines strips comments and blank lines and measures
// indentation. Tabs anywhere in indentation are parse errors.
func logicalLines(name string, data []byte) ([]line, error) {
	var out []line
	for no, raw := range strings.Split(string(data), "\n") {
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, &ParseError{File: name, Line: no + 1, Col: indent + 1,
				Msg: "tab in indentation (use spaces)"}
		}
		text, err := stripComment(name, no+1, indent, raw[indent:])
		if err != nil {
			return nil, err
		}
		text = strings.TrimRight(text, " \r")
		if text == "" {
			continue
		}
		if indent%2 != 0 {
			return nil, &ParseError{File: name, Line: no + 1, Col: indent + 1,
				Msg: fmt.Sprintf("odd indentation %d (indent in steps of two spaces)", indent)}
		}
		out = append(out, line{no: no + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing `# ...` comment, respecting double
// quotes.
func stripComment(name string, no, col int, s string) (string, error) {
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
				return s[:i], nil
			}
		}
	}
	if inQuote {
		return "", &ParseError{File: name, Line: no, Col: col + len(s),
			Msg: "unterminated string"}
	}
	return s, nil
}

type yparser struct {
	file  string
	lines []line
	pos   int
}

// block parses the run of sibling lines at exactly the given indent
// into one mapping or sequence node.
func (p *yparser) block(indent int) (*node, error) {
	first := p.lines[p.pos]
	n := &node{line: first.no, col: first.indent + 1, started: true,
		vals: map[string]*node{}, keyPos: map[string][2]int{}}
	n.isSeq = strings.HasPrefix(first.text, "-") &&
		(first.text == "-" || strings.HasPrefix(first.text, "- "))
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, &ParseError{File: p.file, Line: l.no, Col: l.indent + 1,
				Msg: fmt.Sprintf("unexpected indentation %d, want %d", l.indent, indent)}
		}
		isItem := strings.HasPrefix(l.text, "-") &&
			(l.text == "-" || strings.HasPrefix(l.text, "- "))
		if isItem != n.isSeq {
			return nil, &ParseError{File: p.file, Line: l.no, Col: l.indent + 1,
				Msg: "cannot mix sequence items and mapping keys in one block"}
		}
		if n.isSeq {
			item, err := p.seqItem(l, indent)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, item)
		} else {
			if err := p.mapEntry(n, l, indent); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// seqItem parses one `- ...` line (plus any nested block) into a node.
func (p *yparser) seqItem(l line, indent int) (*node, error) {
	rest := strings.TrimPrefix(l.text, "-")
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" {
		// `-` alone: the item is the nested block two spaces deeper.
		p.pos++
		if p.pos >= len(p.lines) || p.lines[p.pos].indent != indent+2 {
			return nil, &ParseError{File: p.file, Line: l.no, Col: l.indent + 1,
				Msg: "empty sequence item"}
		}
		return p.block(indent + 2)
	}
	if key, val, ok, err := p.splitKey(l, l.indent+2, rest); err != nil {
		return nil, err
	} else if ok {
		// `- key: ...`: a mapping item whose first entry sits inline;
		// its remaining keys follow at the dash indent + 2.
		item := &node{line: l.no, col: l.indent + 3, started: true,
			vals: map[string]*node{}, keyPos: map[string][2]int{}}
		if err := p.mapEntryFrom(item, l, indent+2, key, val, l.indent+2); err != nil {
			return nil, err
		}
		for p.pos < len(p.lines) && p.lines[p.pos].indent == indent+2 {
			nl := p.lines[p.pos]
			if strings.HasPrefix(nl.text, "- ") || nl.text == "-" {
				break
			}
			if err := p.mapEntry(item, nl, indent+2); err != nil {
				return nil, err
			}
		}
		return item, nil
	}
	// Plain scalar item.
	p.pos++
	return p.scalarNode(l.no, l.indent+3, rest)
}

// mapEntry parses one `key: ...` line (plus any nested block) into n.
func (p *yparser) mapEntry(n *node, l line, indent int) error {
	key, val, ok, err := p.splitKey(l, l.indent, l.text)
	if err != nil {
		return err
	}
	if !ok {
		return &ParseError{File: p.file, Line: l.no, Col: l.indent + 1,
			Msg: fmt.Sprintf("expected `key: value`, got %q", l.text)}
	}
	return p.mapEntryFrom(n, l, indent, key, val, l.indent)
}

// mapEntryFrom records one key (already split) and parses its value,
// which is either inline or the nested block two spaces deeper.
func (p *yparser) mapEntryFrom(n *node, l line, indent int, key, val string, keyCol int) error {
	if _, dup := n.vals[key]; dup {
		return &ParseError{File: p.file, Line: l.no, Col: keyCol + 1,
			Msg: fmt.Sprintf("duplicate key %q", key)}
	}
	p.pos++
	var child *node
	if val == "" {
		if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
			return &ParseError{File: p.file, Line: l.no, Col: keyCol + 1,
				Msg: fmt.Sprintf("key %q has no value", key)}
		}
		var err error
		child, err = p.block(indent + 2)
		if err != nil {
			return err
		}
	} else {
		var err error
		child, err = p.scalarNode(l.no, keyCol+len(key)+3, val)
		if err != nil {
			return err
		}
	}
	n.keys = append(n.keys, key)
	n.vals[key] = child
	n.keyPos[key] = [2]int{l.no, keyCol + 1}
	return nil
}

// splitKey splits `key: value` / `key:`; ok is false when the text is
// not a mapping entry at all.
func (p *yparser) splitKey(l line, col int, text string) (key, val string, ok bool, err error) {
	i := strings.Index(text, ":")
	if i < 0 {
		return "", "", false, nil
	}
	key = text[:i]
	if key == "" || strings.ContainsAny(key, " \"[]{}") {
		return "", "", false, nil
	}
	rest := text[i+1:]
	if rest != "" && !strings.HasPrefix(rest, " ") {
		return "", "", false, &ParseError{File: p.file, Line: l.no, Col: col + i + 2,
			Msg: fmt.Sprintf("missing space after %q", key+":")}
	}
	return key, strings.TrimPrefix(rest, " "), true, nil
}

// scalarNode parses an inline value: a quoted string, an inline
// `[a, b]` list of scalars, or a plain token.
func (p *yparser) scalarNode(no, col int, text string) (*node, error) {
	switch {
	case strings.HasPrefix(text, "["):
		if !strings.HasSuffix(text, "]") {
			return nil, &ParseError{File: p.file, Line: no, Col: col + len(text),
				Msg: "unterminated inline list"}
		}
		n := &node{line: no, col: col, started: true, isSeq: true,
			vals: map[string]*node{}, keyPos: map[string][2]int{}}
		body := strings.TrimSpace(text[1 : len(text)-1])
		if body == "" {
			return n, nil
		}
		for _, part := range strings.Split(body, ",") {
			part = strings.TrimSpace(part)
			if part == "" || strings.ContainsAny(part, "[]\"") {
				return nil, &ParseError{File: p.file, Line: no, Col: col,
					Msg: "inline lists hold plain scalars separated by commas"}
			}
			n.items = append(n.items, &node{line: no, col: col, isScal: true, scalar: part})
		}
		return n, nil
	case strings.HasPrefix(text, "\""):
		s, err := unquote(text)
		if err != nil {
			return nil, &ParseError{File: p.file, Line: no, Col: col, Msg: err.Error()}
		}
		return &node{line: no, col: col, isScal: true, scalar: s}, nil
	default:
		return &node{line: no, col: col, isScal: true, scalar: text}, nil
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
