// Package verilog implements a lexer, parser and AST for the synthesizable
// Verilog-2001 subset consumed by RTL-Timer. The subset covers module
// declarations with port lists, wire/reg/input/output declarations with bit
// ranges, parameters, continuous assignments, always blocks (both
// @(posedge clk) sequential and @(*) combinational), if/else and case
// statements, module instantiation with named port connections, and the
// expression grammar needed for realistic datapaths: arithmetic, logical,
// bitwise, reduction, shift, comparison, concatenation, replication,
// bit select, part select and the conditional operator.
package verilog

import (
	"fmt"
	"sort"
)

// TokenKind enumerates lexical token categories.
type TokenKind int

// Token kinds. Keywords get their own kind so the parser can switch on them
// directly.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber // 12, 8'hFF, 4'b1010, 3'd7
	TokString

	// Punctuation and operators.
	TokLParen   // (
	TokRParen   // )
	TokLBracket // [
	TokRBracket // ]
	TokLBrace   // {
	TokRBrace   // }
	TokSemi     // ;
	TokComma    // ,
	TokColon    // :
	TokDot      // .
	TokHash     // #
	TokAt       // @
	TokAssign   // =
	TokNBAssign // <=  (context decides: nonblocking assign or less-equal)
	TokQuestion // ?

	TokPlus   // +
	TokMinus  // -
	TokStar   // *
	TokSlash  // /
	TokPct    // %
	TokAnd    // &
	TokOr     // |
	TokXor    // ^
	TokXnor   // ~^ or ^~
	TokNot    // ~
	TokLAnd   // &&
	TokLOr    // ||
	TokLNot   // !
	TokEq     // ==
	TokNeq    // !=
	TokCaseEq // ===
	TokLt     // <
	TokGt     // >
	TokGe     // >=
	TokShl    // <<
	TokShr    // >>

	// Keywords.
	TokModule
	TokEndModule
	TokInput
	TokOutput
	TokInout
	TokWire
	TokReg
	TokAssignKW // assign
	TokAlways
	TokPosedge
	TokNegedge
	TokBegin
	TokEnd
	TokIf
	TokElse
	TokCase
	TokCasez
	TokEndCase
	TokDefault
	TokParameter
	TokLocalParam
	TokInteger
	TokGenvar
	TokFunction
	TokEndFunction
	TokOrKW // "or" inside sensitivity lists
)

// tokenNames spells every token kind. The lexer's keyword and operator
// tables are derived from it, so each spelling is written only here.
var tokenNames = [...]string{
	TokEOF: "EOF", TokIdent: "identifier", TokNumber: "number", TokString: "string",
	TokLParen: "(", TokRParen: ")", TokLBracket: "[", TokRBracket: "]",
	TokLBrace: "{", TokRBrace: "}", TokSemi: ";", TokComma: ",", TokColon: ":",
	TokDot: ".", TokHash: "#", TokAt: "@", TokAssign: "=", TokNBAssign: "<=",
	TokQuestion: "?", TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokPct: "%", TokAnd: "&", TokOr: "|", TokXor: "^", TokXnor: "~^", TokNot: "~",
	TokLAnd: "&&", TokLOr: "||", TokLNot: "!", TokEq: "==", TokNeq: "!=",
	TokCaseEq: "===", TokLt: "<", TokGt: ">", TokGe: ">=", TokShl: "<<", TokShr: ">>",
	TokModule: "module", TokEndModule: "endmodule", TokInput: "input",
	TokOutput: "output", TokInout: "inout", TokWire: "wire", TokReg: "reg",
	TokAssignKW: "assign", TokAlways: "always", TokPosedge: "posedge",
	TokNegedge: "negedge", TokBegin: "begin", TokEnd: "end", TokIf: "if",
	TokElse: "else", TokCase: "case", TokCasez: "casez", TokEndCase: "endcase",
	TokDefault: "default", TokParameter: "parameter", TokLocalParam: "localparam",
	TokInteger: "integer", TokGenvar: "genvar", TokFunction: "function",
	TokEndFunction: "endfunction", TokOrKW: "or",
}

// keywords maps each keyword spelling to its kind.
var keywords = func() map[string]TokenKind {
	m := map[string]TokenKind{}
	for k := TokModule; int(k) < len(tokenNames); k++ {
		m[tokenNames[k]] = k
	}
	return m
}()

// operator is one spelling of a punctuation or operator token. keep marks
// a spelling the token's Text carries: ~& and ~| lex as ~, and the parser
// tells them apart by their Text.
type operator struct {
	text string
	kind TokenKind
	keep bool
}

// operators lists the operator spellings that start with each byte,
// longest first, so the lexer takes the longest match. Besides
// tokenNames' spellings there are ^~ (XNOR) and ~& and ~|.
var operators = func() (t [256][]operator) {
	all := []operator{{"^~", TokXnor, false}, {"~&", TokNot, true}, {"~|", TokNot, true}}
	for k := TokLParen; k <= TokShr; k++ {
		all = append(all, operator{tokenNames[k], k, false})
	}
	for _, op := range all {
		t[op.text[0]] = append(t[op.text[0]], op)
	}
	for _, ops := range t {
		sort.SliceStable(ops, func(i, j int) bool { return len(ops[i].text) > len(ops[j].text) })
	}
	return t
}()

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if k >= 0 && int(k) < len(tokenNames) {
		return tokenNames[k]
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == TokIdent || t.Kind == TokNumber {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	}
	return t.Kind.String()
}
