package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a module in the textual format produced by Print.
// The returned module is structurally parsed but not verified; run
// Verify to check SSA invariants.
func Parse(src string) (*Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.module()
}

// token kinds.
type tokKind uint8

const (
	tEOF tokKind = iota
	tNewline
	tIdent  // bare identifier (keywords, labels, type names)
	tLocal  // %name
	tGlobal // @name
	tString // "..."
	tNumber // integer or float literal
	tPunct  // single-char punctuation, and "->"
)

type token struct {
	kind tokKind
	text string
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	emit := func(k tokKind, s string) { toks = append(toks, token{k, s, line}) }
	isIdent := func(c byte) bool {
		return c == '_' || c == '.' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(tNewline, "\n")
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '%' || c == '@':
			j := i + 1
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("line %d: empty %c-name", line, c)
			}
			if c == '%' {
				emit(tLocal, src[i+1:j])
			} else {
				emit(tGlobal, src[i+1:j])
			}
			i = j
		case c == '"':
			// Strings are Go-quoted, as Print writes them with %q.
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				if src[j] == '\\' && j+1 < len(src) && src[j+1] != '\n' {
					j++
				}
				j++
			}
			if j >= len(src) || src[j] != '"' {
				return nil, fmt.Errorf("line %d: unterminated string", line)
			}
			str, err := strconv.Unquote(src[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("line %d: malformed string %s", line, src[i:j+1])
			}
			emit(tString, str)
			i = j + 1
		case c == '-' && i+1 < len(src) && src[i+1] == '>':
			emit(tPunct, "->")
			i += 2
		case c == '-' || c >= '0' && c <= '9':
			j := i + 1
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' ||
				(src[j] == '-' || src[j] == '+') && (src[j-1] == 'e' || src[j-1] == 'E')) {
				j++
			}
			emit(tNumber, src[i:j])
			i = j
		case isIdent(c):
			j := i
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			emit(tIdent, src[i:j])
			i = j
		case strings.ContainsRune("(),[]{}:=!", rune(c)):
			emit(tPunct, string(c))
			i++
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
		}
	}
	emit(tEOF, "")
	return toks, nil
}

// fixup records a forward value reference to resolve at function end.
type fixup struct {
	instr *Instr
	arg   int
	name  string
	ty    Type // expected type; KVoid means "any"
	line  int
}

type parser struct {
	toks []token
	pos  int

	mod    *Module
	fn     *Func
	values map[string]Value
	fixups []fixup

	// pendingCalls records calls to functions declared later in the
	// module, resolved once all functions are parsed.
	pendingCalls []pendingCall
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) skipNewlines() {
	for p.peek().kind == tNewline {
		p.pos++
	}
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tPunct || t.text != s {
		return fmt.Errorf("line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tIdent {
		return "", fmt.Errorf("line %d: expected identifier, got %q", t.line, t.text)
	}
	return t.text, nil
}

func (p *parser) parseType() (Type, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Type{}, err
	}
	ty, ok := TypeByName(name)
	if !ok {
		return Type{}, fmt.Errorf("unknown type %q", name)
	}
	return ty, nil
}

// module parses the whole input.
func (p *parser) module() (*Module, error) {
	p.skipNewlines()
	if kw, err := p.expectIdent(); err != nil || kw != "module" {
		return nil, fmt.Errorf("input must start with module declaration")
	}
	t := p.next()
	if t.kind != tString {
		return nil, fmt.Errorf("line %d: module needs a quoted name", t.line)
	}
	p.mod = NewModule(t.text)
	for {
		p.skipNewlines()
		switch tok := p.peek(); {
		case tok.kind == tEOF:
			if err := p.resolveCalleeFixups(); err != nil {
				return nil, err
			}
			return p.mod, nil
		case tok.kind == tIdent && tok.text == "global":
			if err := p.global(); err != nil {
				return nil, err
			}
		case tok.kind == tIdent && tok.text == "func":
			if err := p.function(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected global or func, got %q", tok.text)
		}
	}
}

func (p *parser) global() error {
	p.next() // "global"
	t := p.next()
	if t.kind != tGlobal {
		return fmt.Errorf("line %d: global needs @name", t.line)
	}
	name := t.text
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	if err := p.expectPunct("["); err != nil {
		return err
	}
	n := p.next()
	if n.kind != tNumber {
		return fmt.Errorf("line %d: global needs element count", n.line)
	}
	count, err := strconv.Atoi(n.text)
	if err != nil || count <= 0 {
		return fmt.Errorf("line %d: bad element count %q", n.line, n.text)
	}
	if err := p.expectPunct("]"); err != nil {
		return err
	}
	p.mod.NewGlobal(name, ty, count)
	return nil
}

// pendingCall records a call to a function not yet declared.
type pendingCall struct {
	instr *Instr
	name  string
	line  int
}

func (p *parser) resolveCalleeFixups() error {
	for _, pc := range p.pendingCalls {
		f := p.mod.FuncByName(pc.name)
		if f == nil {
			return fmt.Errorf("line %d: call to undeclared function @%s", pc.line, pc.name)
		}
		pc.instr.Callee = f
	}
	p.pendingCalls = nil
	return nil
}

func (p *parser) function() error {
	p.next() // "func"
	t := p.next()
	if t.kind != tGlobal {
		return fmt.Errorf("line %d: func needs @name", t.line)
	}
	name := t.text
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var params []*Param
	for p.peek().kind != tPunct || p.peek().text != ")" {
		if len(params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		pt := p.next()
		if pt.kind != tLocal {
			return fmt.Errorf("line %d: parameter needs %%name", pt.line)
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		params = append(params, NewParam(pt.text, ty))
	}
	p.next() // ")"
	if err := p.expectPunct("->"); err != nil {
		return err
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	fn := p.mod.NewFunc(name, ret, params...)

	// Optional metadata: !file "..." !line N !hint "key" N ...
	for p.peek().kind == tPunct && p.peek().text == "!" {
		p.next()
		if err := p.parseMeta(fn); err != nil {
			return err
		}
	}

	if err := p.expectPunct("{"); err != nil {
		return err
	}
	return p.body(fn)
}

func (p *parser) parseMeta(fn *Func) error {
	kw, err := p.expectIdent()
	if err != nil {
		return err
	}
	switch kw {
	case "file":
		t := p.next()
		if t.kind != tString {
			return fmt.Errorf("line %d: !file needs a string", t.line)
		}
		fn.SourceFile = t.text
	case "line":
		t := p.next()
		if t.kind != tNumber {
			return fmt.Errorf("line %d: !line needs a number", t.line)
		}
		n, _ := strconv.Atoi(t.text)
		fn.SourceLine = n
	case "hint":
		t := p.next()
		if t.kind != tString {
			return fmt.Errorf("line %d: !hint needs a string key", t.line)
		}
		v := p.next()
		if v.kind != tNumber {
			return fmt.Errorf("line %d: !hint needs a numeric value", v.line)
		}
		n, _ := strconv.ParseInt(v.text, 10, 64)
		fn.SetHint(t.text, n)
	default:
		return fmt.Errorf("unknown metadata !%s", kw)
	}
	return nil
}

// pendingCalls is parser state (declared as a field).
func (p *parser) body(fn *Func) error {
	p.fn = fn
	p.values = make(map[string]Value)
	p.fixups = nil
	for _, prm := range fn.Params {
		p.values[prm.PName] = prm
	}

	// First pass: scan ahead for labels so branches can resolve blocks.
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.kind == tPunct && t.text == "{" {
			depth++
		}
		if t.kind == tPunct && t.text == "}" {
			if depth == 0 {
				break
			}
			depth--
		}
		if t.kind == tIdent && i+1 < len(p.toks) &&
			p.toks[i+1].kind == tPunct && p.toks[i+1].text == ":" &&
			(i == 0 || p.toks[i-1].kind == tNewline) {
			fn.NewBlock(t.text)
		}
	}

	var cur *Block
	for {
		p.skipNewlines()
		tok := p.peek()
		if tok.kind == tPunct && tok.text == "}" {
			p.next()
			break
		}
		if tok.kind == tEOF {
			return fmt.Errorf("unexpected EOF in function @%s", fn.FName)
		}
		// Label?
		if tok.kind == tIdent && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == ":" {
			cur = fn.BlockByName(tok.text)
			p.pos += 2
			continue
		}
		if cur == nil {
			return p.errf("instruction before any label in @%s", fn.FName)
		}
		if err := p.instruction(cur); err != nil {
			return err
		}
	}

	// Resolve forward references.
	for _, fx := range p.fixups {
		v, ok := p.values[fx.name]
		if !ok {
			return fmt.Errorf("line %d: undefined value %%%s in @%s", fx.line, fx.name, fn.FName)
		}
		if fx.ty.Kind != KVoid && v.Type() != fx.ty {
			return fmt.Errorf("line %d: %%%s has type %s, expected %s",
				fx.line, fx.name, v.Type(), fx.ty)
		}
		fx.instr.Args[fx.arg] = v
	}
	return nil
}

// pendingRef is a placeholder operand awaiting fixup resolution.
type pendingRef struct {
	name string
	ty   Type
}

func (r *pendingRef) Type() Type     { return r.ty }
func (r *pendingRef) Name() string   { return r.name }
func (r *pendingRef) String() string { return "%" + r.name }

// operandValue parses one operand of the expected type. KVoid expected
// type means "take whatever the named value has" (constants disallowed).
func (p *parser) operandValue(expected Type) (Value, *fixup, error) {
	t := p.next()
	switch t.kind {
	case tLocal:
		if v, ok := p.values[t.text]; ok {
			if expected.Kind != KVoid && v.Type() != expected {
				return nil, nil, fmt.Errorf("line %d: %%%s has type %s, expected %s",
					t.line, t.text, v.Type(), expected)
			}
			return v, nil, nil
		}
		// Forward reference.
		return &pendingRef{name: t.text, ty: expected},
			&fixup{name: t.text, ty: expected, line: t.line}, nil
	case tGlobal:
		if g := p.mod.GlobalByName(t.text); g != nil {
			if expected.Kind != KVoid && expected != Ptr {
				return nil, nil, fmt.Errorf("line %d: global @%s where %s expected", t.line, t.text, expected)
			}
			return g, nil, nil
		}
		return nil, nil, fmt.Errorf("line %d: unknown global @%s", t.line, t.text)
	case tNumber:
		if expected.Kind == KVoid {
			return nil, nil, fmt.Errorf("line %d: constant %q needs a typed context", t.line, t.text)
		}
		if expected.IsFloat() {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: bad float %q", t.line, t.text)
			}
			return ConstFloat(expected, f), nil, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad integer %q", t.line, t.text)
		}
		return ConstInt(expected, n), nil, nil
	}
	return nil, nil, fmt.Errorf("line %d: expected operand, got %q", t.line, t.text)
}

// addOperand parses an operand into in.Args[idx] (which must already
// exist), registering a fixup when needed.
func (p *parser) addOperand(in *Instr, idx int, expected Type) error {
	v, fx, err := p.operandValue(expected)
	if err != nil {
		return err
	}
	in.Args[idx] = v
	if fx != nil {
		fx.instr = in
		fx.arg = idx
		p.fixups = append(p.fixups, *fx)
	}
	return nil
}

func (p *parser) blockRef() (*Block, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	b := p.fn.BlockByName(name)
	if b == nil {
		return nil, fmt.Errorf("unknown block %q in @%s", name, p.fn.FName)
	}
	return b, nil
}

func (p *parser) define(name string, in *Instr) error {
	if _, dup := p.values[name]; dup {
		return fmt.Errorf("redefinition of %%%s in @%s", name, p.fn.FName)
	}
	in.name = name
	p.values[name] = in
	return nil
}

// instruction parses one instruction line into block cur.
func (p *parser) instruction(cur *Block) error {
	var resultName string
	if p.peek().kind == tLocal {
		resultName = p.next().text
		if err := p.expectPunct("="); err != nil {
			return err
		}
	}
	opName, err := p.expectIdent()
	if err != nil {
		return err
	}
	op, ok := OpByName(opName)
	if !ok {
		return fmt.Errorf("unknown opcode %q", opName)
	}
	in := &Instr{Op: op, block: cur}
	appendIt := func() { cur.Instrs = append(cur.Instrs, in) }

	switch {
	case op.IsBinary():
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		in.Args = make([]Value, 2)
		if err := p.addOperand(in, 0, ty); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.addOperand(in, 1, ty); err != nil {
			return err
		}
	case op == OpICmp || op == OpFCmp:
		predName, err := p.expectIdent()
		if err != nil {
			return err
		}
		pred, ok := PredByName(predName)
		if !ok {
			return fmt.Errorf("unknown predicate %q", predName)
		}
		in.Pred = pred
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = I1
		in.Args = make([]Value, 2)
		if err := p.addOperand(in, 0, ty); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.addOperand(in, 1, ty); err != nil {
			return err
		}
	case op == OpFMA:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		in.Args = make([]Value, 3)
		for i := 0; i < 3; i++ {
			if i > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			if err := p.addOperand(in, i, ty); err != nil {
				return err
			}
		}
	case op.IsConversion():
		from, err := p.parseType()
		if err != nil {
			return err
		}
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, from); err != nil {
			return err
		}
		if kw, err := p.expectIdent(); err != nil || kw != "to" {
			return fmt.Errorf("conversion needs 'to <type>'")
		}
		to, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = to
	case op == OpSplat:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		if !ty.IsVector() {
			return fmt.Errorf("splat needs a vector result type")
		}
		in.Ty = ty
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, ty.Elem()); err != nil {
			return err
		}
	case op == OpExtract:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, Void); err != nil { // vector type unknown here
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		n := p.next()
		if n.kind != tNumber {
			return fmt.Errorf("extract needs a lane number")
		}
		in.Lane, _ = strconv.Atoi(n.text)
	case op == OpReduce:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, Void); err != nil {
			return err
		}
	case op == OpAlloca:
		n := p.next()
		if n.kind != tNumber {
			return fmt.Errorf("alloca needs an element size")
		}
		in.Scale, _ = strconv.ParseInt(n.text, 10, 64)
		if err := p.expectPunct(","); err != nil {
			return err
		}
		in.Ty = Ptr
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, I64); err != nil {
			return err
		}
	case op == OpLoad:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, Ptr); err != nil {
			return err
		}
		// Optional constant displacement.
		if p.peek().kind == tPunct && p.peek().text == "," {
			p.next()
			n := p.next()
			if n.kind != tNumber {
				return fmt.Errorf("load displacement must be a number")
			}
			in.Scale, _ = strconv.ParseInt(n.text, 10, 64)
		}
	case op == OpStore:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = Void
		in.Args = make([]Value, 2)
		if err := p.addOperand(in, 0, ty); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.addOperand(in, 1, Ptr); err != nil {
			return err
		}
		if p.peek().kind == tPunct && p.peek().text == "," {
			p.next()
			n := p.next()
			if n.kind != tNumber {
				return fmt.Errorf("store displacement must be a number")
			}
			in.Scale, _ = strconv.ParseInt(n.text, 10, 64)
		}
	case op == OpGEP:
		in.Ty = Ptr
		in.Args = make([]Value, 2)
		if err := p.addOperand(in, 0, Ptr); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		idxTy, err := p.parseType()
		if err != nil {
			return err
		}
		if err := p.addOperand(in, 1, idxTy); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		n := p.next()
		if n.kind != tNumber {
			return fmt.Errorf("gep needs a scale")
		}
		in.Scale, _ = strconv.ParseInt(n.text, 10, 64)
	case op == OpPhi:
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		for {
			if err := p.expectPunct("["); err != nil {
				return err
			}
			in.Args = append(in.Args, nil)
			if err := p.addOperand(in, len(in.Args)-1, ty); err != nil {
				return err
			}
			if err := p.expectPunct(","); err != nil {
				return err
			}
			b, err := p.blockRef()
			if err != nil {
				return err
			}
			in.Blocks = append(in.Blocks, b)
			if err := p.expectPunct("]"); err != nil {
				return err
			}
			if p.peek().kind == tPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	case op == OpSelect:
		in.Args = make([]Value, 3)
		if err := p.addOperand(in, 0, I1); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Ty = ty
		if err := p.addOperand(in, 1, ty); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.addOperand(in, 2, ty); err != nil {
			return err
		}
	case op == OpCall:
		// Optional result type before @callee.
		in.Ty = Void
		if p.peek().kind == tIdent {
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			in.Ty = ty
		}
		t := p.next()
		if t.kind != tGlobal {
			return fmt.Errorf("call needs @callee")
		}
		calleeName := t.text
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for p.peek().kind != tPunct || p.peek().text != ")" {
			if len(in.Args) > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			aty, err := p.parseType()
			if err != nil {
				return err
			}
			in.Args = append(in.Args, nil)
			if err := p.addOperand(in, len(in.Args)-1, aty); err != nil {
				return err
			}
		}
		p.next() // ")"
		if f := p.mod.FuncByName(calleeName); f != nil {
			in.Callee = f
		} else {
			p.pendingCalls = append(p.pendingCalls, pendingCall{instr: in, name: calleeName, line: t.line})
		}
	case op == OpRet:
		in.Ty = Void
		if p.peek().kind != tNewline && p.peek().kind != tEOF {
			ty, err := p.parseType()
			if err != nil {
				return err
			}
			in.Args = make([]Value, 1)
			if err := p.addOperand(in, 0, ty); err != nil {
				return err
			}
		}
	case op == OpBr:
		in.Ty = Void
		b, err := p.blockRef()
		if err != nil {
			return err
		}
		in.Blocks = []*Block{b}
	case op == OpCondBr:
		in.Ty = Void
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, I1); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		thn, err := p.blockRef()
		if err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		els, err := p.blockRef()
		if err != nil {
			return err
		}
		in.Blocks = []*Block{thn, els}
	case op == OpSwitch:
		in.Ty = Void
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		in.Args = make([]Value, 1)
		if err := p.addOperand(in, 0, ty); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		dflt, err := p.blockRef()
		if err != nil {
			return err
		}
		in.Blocks = []*Block{dflt}
		if err := p.expectPunct("["); err != nil {
			return err
		}
		for p.peek().kind != tPunct || p.peek().text != "]" {
			if len(in.Cases) > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			n := p.next()
			if n.kind != tNumber {
				return fmt.Errorf("switch case needs a number")
			}
			cv, _ := strconv.ParseInt(n.text, 10, 64)
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			dst, err := p.blockRef()
			if err != nil {
				return err
			}
			in.Cases = append(in.Cases, cv)
			in.Blocks = append(in.Blocks, dst)
		}
		p.next() // "]"
	default:
		return fmt.Errorf("opcode %q not handled by parser", opName)
	}

	if in.Ty != Void {
		if resultName == "" {
			return fmt.Errorf("instruction %s produces a value but has no name", opName)
		}
		if err := p.define(resultName, in); err != nil {
			return err
		}
	} else if resultName != "" {
		return fmt.Errorf("instruction %s produces no value but is assigned to %%%s", opName, resultName)
	}
	appendIt()
	return nil
}
