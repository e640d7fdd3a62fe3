// Package floatcmp flags raw float64 (or float32) comparisons — the
// equalities `==`/`!=` and, since the B&B epsilon audit, the ordered
// operators `<`, `<=`, `>`, `>=` — in the packages that carry the
// synthesis flow's costs and bounds. The CDCS optimality argument
// compares real-valued costs; in float64 those values arrive with
// summation-order-dependent rounding noise, so a raw comparison
// silently encodes a decision about how ties and near-ties behave.
// The approved alternative is repro/internal/num, which splits every
// comparison into a reviewed family: the epsilon helpers (Eq, Less,
// LessEq, Greater, GreaterEq, IsZero) where a noise-split tie must
// stay a tie, and the exact helpers (Improves, NoBetter, Below,
// AtMost) where the audit concluded tolerance is unsound —
// pruning against an incumbent must never discard a genuinely better
// subtree, and the bench gate pins the search counters exactly.
// Routing a comparison through a named helper is the audit trail.
//
// Exemptions: test files (tests compare values they constructed,
// where exactness is the point); equality of two constants (evaluated
// exactly at compile time); and ordered comparisons against a
// constant (`gap < 0`, `raise <= 0` — sign and threshold tests whose
// semantics are exact by construction, not tie-breaks between two
// computed quantities). There is no suppression comment — fix or
// refactor.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the floatcmp check.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "flags raw float comparisons (==, !=, <, <=, >, >=) in cost/bound-carrying packages (ucp, merging, ilp, synth, p2p, cdcs); use the repro/internal/num comparators",
	Run:  run,
}

// audited is the set of package base names whose float values are
// costs, bounds, distances, or bandwidths feeding the exactness
// argument.
var audited = map[string]bool{
	"ucp":     true,
	"merging": true,
	"ilp":     true,
	"synth":   true,
	"p2p":     true,
	"cdcs":    true,
}

func run(pass *analysis.Pass) error {
	if !audited[analysis.BaseName(pass.Path)] {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var ordered bool
		switch cmp.Op {
		case token.EQL, token.NEQ:
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			ordered = true
		default:
			return true
		}
		if pass.IsTestFile(cmp.Pos()) {
			return false
		}
		if !isFloat(pass, cmp.X) || !isFloat(pass, cmp.Y) {
			return true
		}
		cx, cy := isConst(pass, cmp.X), isConst(pass, cmp.Y)
		if ordered {
			// Threshold tests against a literal are exact by intent.
			if cx || cy {
				return true
			}
		} else if cx && cy {
			return true
		}
		pass.Reportf(cmp.Pos(), "float %s comparison of %s and %s; use the comparators in repro/internal/num (floatcmp)",
			cmp.Op, types.ExprString(cmp.X), types.ExprString(cmp.Y))
		return true
	})
	return nil
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	return pass.TypesInfo.Types[e].Value != nil
}
