package pipeline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestObserverEventsGuarded is the deterministic companion of the root
// package's wall-clock TestObserverDisabledOverheadGuard. It parses the
// simulator's hot packages and requires every obs.Event literal to be built
// only under a nil-observer check, so an observer-less run constructs no
// event at all.
//
// A literal is guarded inside the then-branch of an if whose condition has
// a conjunct `X.obs != nil` (or Obs), inside the else-branch of one testing
// `X.obs == nil`, or after an `if X.obs == nil { return }` in the same
// block. A function with an unguarded literal is an emitter whose callers
// must guard it instead, so an unguarded call to an emitter makes its caller
// one too. The closure of emitters must hold no exported function: an
// exported entry point would then build events with no observer attached.
func TestObserverEventsGuarded(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range []string{".", "../core", "../tep"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}

	// sites holds, per function name, the unguarded event literals and the
	// names called outside a guard. Functions and methods sharing a name
	// share an entry, which can only make the check stricter.
	type sites struct {
		decl    *ast.FuncDecl
		events  []token.Pos
		callees []string
	}
	funcs := map[string]*sites{}
	literals := 0
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s := funcs[fd.Name.Name]
			if s == nil {
				s = &sites{decl: fd}
				funcs[fd.Name.Name] = s
			}
			walkGuarded(fd.Body, false, func(n ast.Node, guarded bool) {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isObsEvent(n.Type) {
						literals++
						if !guarded {
							s.events = append(s.events, n.Pos())
						}
					}
				case *ast.CallExpr:
					if guarded {
						break
					}
					switch fn := n.Fun.(type) {
					case *ast.SelectorExpr:
						s.callees = append(s.callees, fn.Sel.Name)
					case *ast.Ident:
						s.callees = append(s.callees, fn.Name)
					}
				}
			})
		}
	}
	if literals < 15 {
		t.Fatalf("found only %d obs.Event literals: the parse missed the emission sites", literals)
	}

	emitters := map[string]bool{}
	for name, s := range funcs {
		if len(s.events) > 0 {
			emitters[name] = true
		}
	}
	for grew := true; grew; {
		grew = false
		for name, s := range funcs {
			if !emitters[name] && slices.ContainsFunc(s.callees, func(c string) bool { return emitters[c] }) {
				emitters[name] = true
				grew = true
			}
		}
	}
	for name := range emitters {
		s := funcs[name]
		if ast.IsExported(name) {
			where := fset.Position(s.decl.Pos())
			if len(s.events) > 0 {
				where = fset.Position(s.events[0])
			}
			t.Errorf("%s: %s builds obs.Events with no nil-observer check on the way", where, name)
		}
	}
	t.Logf("%d obs.Event literals; helpers whose callers guard them: %v", literals, sortedKeys(emitters))
}

// walkGuarded calls visit for every node under n with whether a
// nil-observer check guards it.
func walkGuarded(n ast.Node, guarded bool, visit func(ast.Node, bool)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		visit(c, guarded)
		switch c := c.(type) {
		case *ast.IfStmt:
			if c.Init != nil {
				walkGuarded(c.Init, guarded, visit)
			}
			walkGuarded(c.Cond, guarded, visit)
			walkGuarded(c.Body, guarded || observerTest(c.Cond, token.NEQ), visit)
			if c.Else != nil {
				walkGuarded(c.Else, guarded || observerTest(c.Cond, token.EQL), visit)
			}
			return false
		case *ast.BlockStmt:
			g := guarded
			for _, st := range c.List {
				walkGuarded(st, g, visit)
				if is, ok := st.(*ast.IfStmt); ok && is.Else == nil && observerTest(is.Cond, token.EQL) && endsInReturn(is.Body) {
					g = true
				}
			}
			return false
		}
		return true
	})
}

// observerTest reports whether cond holds a conjunct `X.obs op nil` (op is
// != or ==). With ==, only a condition that is that test alone counts: its
// negation then guarantees an observer.
func observerTest(cond ast.Expr, op token.Token) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op == token.LAND {
		return op == token.NEQ && (observerTest(be.X, op) || observerTest(be.Y, op))
	}
	if be.Op != op {
		return false
	}
	nilY := false
	if id, ok := be.Y.(*ast.Ident); ok && id.Name == "nil" {
		nilY = true
	}
	return nilY && isObserver(be.X)
}

func isObserver(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "obs" || e.Sel.Name == "Obs"
	case *ast.Ident:
		return e.Name == "obs"
	}
	return false
}

func isObsEvent(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Event" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "obs"
}

func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
