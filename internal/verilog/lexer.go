package verilog

import (
	"fmt"
	"strings"
)

// Lexer turns Verilog source text into a token stream. Comments (both //
// line and /* block */) and compiler directives (`timescale etc.) are
// skipped.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// LexError describes a lexical error with position information.
type LexError struct {
	Line, Col int
	Msg       string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("verilog: lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *Lexer) errf(format string, args ...any) error {
	return &LexError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '\\' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNumPart(c byte) bool {
	return isDigit(c) || c == '_' || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') ||
		c == 'x' || c == 'X' || c == 'z' || c == 'Z'
}

// skipSpace consumes whitespace, comments and compiler directives.
func (l *Lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		case c == '`':
			// Compiler directive: skip to end of line.
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		if c == '\\' { // escaped identifier: up to whitespace
			l.advance()
			for l.pos < len(l.src) && l.peek() != ' ' && l.peek() != '\t' && l.peek() != '\n' && l.peek() != '\r' {
				l.advance()
			}
			tok.Kind = TokIdent
			tok.Text = strings.TrimPrefix(l.src[start:l.pos], "\\")
			return tok, nil
		}
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		tok.Text = l.src[start:l.pos]
		if kw, ok := keywords[tok.Text]; ok {
			tok.Kind = kw
		} else {
			tok.Kind = TokIdent
		}
		return tok, nil
	case isDigit(c) || (c == '\'' && l.pos+1 < len(l.src)):
		start := l.pos
		for l.pos < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		if l.peek() == '\'' {
			l.advance() // '
			// Base char: b, o, d, h (optionally preceded by s for signed).
			if l.peek() == 's' || l.peek() == 'S' {
				l.advance()
			}
			switch l.peek() {
			case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
				l.advance()
			default:
				return tok, l.errf("invalid number base %q", string(l.peek()))
			}
			for l.pos < len(l.src) && isNumPart(l.peek()) {
				l.advance()
			}
		}
		tok.Kind = TokNumber
		tok.Text = l.src[start:l.pos]
		return tok, nil
	case c == '"':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peek() != '"' {
			l.advance()
		}
		if l.pos >= len(l.src) {
			return tok, l.errf("unterminated string")
		}
		tok.Kind = TokString
		tok.Text = l.src[start:l.pos]
		l.advance()
		return tok, nil
	}
	for _, op := range operators[c] {
		if strings.HasPrefix(l.src[l.pos:], op.text) {
			for range op.text {
				l.advance()
			}
			tok.Kind = op.kind
			if op.keep {
				tok.Text = op.text
			}
			return tok, nil
		}
	}
	l.advance()
	return tok, l.errf("unexpected character %q", string(c))
}
