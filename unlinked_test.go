package treads_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowlist names the functions that no binary links but that stay,
// one "<symbol> <reason-tag>" per line; '#' starts a comment.
const unlinkedAllowlist = "testdata/unlinked.allow"

// TestEveryFunctionIsLinked fails when a non-test function is linked into
// none of the module's binaries (every main package: cmd/*, examples/*,
// benchmark) and is not on the allowlist, and when an allowlist entry is
// linked after all or no longer exists. Binaries are built with inlining
// off, so a function that is called keeps its symbol; `go tool nm` lists
// the symbols. Generic functions and methods of generic types are not
// checked: their symbols carry shape names.
//
// A symbol is the package's path inside the module (the root package is
// "treads") and the name as the linker spells it:
// "internal/core.NewCostModel", "internal/core.(*Provider).DeployExprTread",
// "internal/core.CostModel.PerBitSplitAttribute".
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	module := goOutput(t, "list", "-m")
	declared := declaredFuncs(t, module)
	linked := linkedSymbols(t, module)
	allowed := readAllowlist(t)

	var unlinked, stale []string
	for sym := range declared {
		if !linked[sym] && allowed[sym] == "" {
			unlinked = append(unlinked, sym)
		}
	}
	for sym := range allowed {
		switch {
		case !declared[sym]:
			stale = append(stale, sym+" (no such function)")
		case linked[sym]:
			stale = append(stale, sym+" (linked)")
		}
	}
	sort.Strings(unlinked)
	sort.Strings(stale)
	for _, sym := range unlinked {
		t.Errorf("no binary links %s: call it from one, or delete it (%s lists the exceptions)", sym, unlinkedAllowlist)
	}
	for _, sym := range stale {
		t.Errorf("%s lists %s: delete the entry", unlinkedAllowlist, sym)
	}
}

func goOutput(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out))
}

// declaredFuncs returns the symbol of every non-generic function and method
// declared in a non-test file of the module.
func declaredFuncs(t *testing.T, module string) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = filepath.Base(module)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Type.TypeParams != nil || fn.Name.Name == "init" || fn.Name.Name == "_" ||
				(fn.Name.Name == "main" && f.Name.Name == "main" && fn.Recv == nil) {
				continue
			}
			if fn.Recv == nil {
				funcs[pkg+"."+fn.Name.Name] = true
				continue
			}
			recv := fn.Recv.List[0].Type
			ptr := false
			if star, ok := recv.(*ast.StarExpr); ok {
				recv, ptr = star.X, true
			}
			ident, ok := recv.(*ast.Ident)
			if !ok { // a generic receiver: T[P]
				continue
			}
			if ptr {
				funcs[pkg+".(*"+ident.Name+")."+fn.Name.Name] = true
			} else {
				funcs[pkg+"."+ident.Name+"."+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// linkedSymbols builds every main package of the module without inlining
// and returns the text symbols of the module's own code, in declaredFuncs'
// spelling. A main package's symbols read "main.X" and are renamed to its
// directory.
func linkedSymbols(t *testing.T, module string) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	mains := strings.Fields(goOutput(t, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	if len(mains) == 0 {
		t.Fatal("no main package in the module")
	}
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	for _, path := range mains {
		bin := filepath.Join(dir, filepath.Base(path))
		cmd := exec.Command("go", "tool", "nm", bin)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		mainPkg := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 || fields[1] != "T" {
				continue
			}
			sym := fields[2]
			switch {
			case strings.HasPrefix(sym, module+"."):
				sym = filepath.Base(module) + strings.TrimPrefix(sym, module)
			case strings.HasPrefix(sym, module+"/"):
				sym = strings.TrimPrefix(sym, module+"/")
			case strings.HasPrefix(sym, "main."):
				sym = mainPkg + strings.TrimPrefix(sym, "main")
			default:
				continue
			}
			linked[sym] = true
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
	}
	return linked
}

// readAllowlist returns each allowlisted symbol with its reason tag.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(unlinkedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			continue
		case len(fields) != 2:
			t.Errorf("%s:%d: want \"<symbol> <reason-tag>\", got %q", unlinkedAllowlist, i+1, line)
			continue
		case allowed[fields[0]] != "":
			t.Errorf("%s:%d: %s listed twice", unlinkedAllowlist, i+1, fields[0])
		}
		allowed[fields[0]] = fields[1]
	}
	return allowed
}
