// Package wireexhaustive implements the codec-completeness analyzer.
// Envelope payloads are polymorphic (protocol.Envelope.Payload is any),
// so the compiler cannot tell when a protocol grows a payload type the
// wire codec does not know: the failure surfaces at run time as an
// encode error on a live cluster (PR 3 hit exactly this when RbMsg was
// added). This analyzer closes the gap statically:
//
//   - every type marked //ocsml:wirepayload must appear as a case in
//     the codec's encode type-switch (appendPayload) and be constructed
//     somewhere in its decode switch (decodePayload);
//   - conversely, every type the codec encodes or decodes must carry
//     the //ocsml:wirepayload mark, so the registry stays the single
//     source of truth;
//   - every Tag* string constant (control-message tags) must fit the
//     codec's MaxCtlTag bound, and no two tags may share a value.
//
// The checked-in fuzz corpus must also contain at least one seed per
// payload kind; that check needs the real decoder, so it lives in
// CheckCorpus, wired up by cmd/ocsmlvet (and mirrored at run time by
// internal/wire's completeness test).
package wireexhaustive

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ocsml/internal/analysis/vetkit"
)

// EncodeFunc and DecodeFunc name the codec's payload switches.
const (
	EncodeFunc = "appendPayload"
	DecodeFunc = "decodePayload"
)

// Analyzer is the wireexhaustive analysis.
var Analyzer = &vetkit.Analyzer{
	Name: "wireexhaustive",
	Doc:  "cross-check //ocsml:wirepayload types against the wire codec's encode and decode switches",
	Run:  run,

	Directives: []string{"wirepayload"},
}

func run(pass *vetkit.Pass) error {
	var encFn, decFn *ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				switch fd.Name.Name {
				case EncodeFunc:
					encFn = fd
				case DecodeFunc:
					decFn = fd
				}
			}
		}
	}
	if encFn == nil || decFn == nil {
		return nil // not the codec package
	}

	registry := collectPayloads(pass)

	// Encode coverage: the case types of the payload type-switch.
	encoded := map[*types.TypeName]bool{}
	ast.Inspect(encFn, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, stmt := range ts.Body.List {
			cc := stmt.(*ast.CaseClause)
			for _, texpr := range cc.List {
				obj := namedObj(pass, texpr)
				if obj == nil {
					continue // nil case, interfaces, built-ins
				}
				encoded[obj] = true
				if _, ok := registry[obj]; !ok {
					pass.Reportf(texpr.Pos(), "%s encodes %s, which is not marked //ocsml:wirepayload: mark the type so the registry stays exhaustive", EncodeFunc, qualified(obj))
				}
			}
		}
		return false
	})

	// Decode coverage: payload types constructed anywhere in decodePayload.
	decoded := map[*types.TypeName]bool{}
	ast.Inspect(decFn, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if obj := namedObj(pass, cl); obj != nil {
			decoded[obj] = true
			if _, ok := registry[obj]; !ok {
				pass.Reportf(cl.Pos(), "%s constructs %s, which is not marked //ocsml:wirepayload", DecodeFunc, qualified(obj))
			}
		}
		return true
	})

	for _, obj := range sortedKeys(registry) {
		if !encoded[obj] {
			pass.Reportf(encFn.Name.Pos(), "payload type %s (//ocsml:wirepayload) has no case in %s: it cannot travel on the wire", qualified(obj), EncodeFunc)
		}
		if !decoded[obj] {
			pass.Reportf(decFn.Name.Pos(), "payload type %s (//ocsml:wirepayload) is never constructed in %s: frames carrying it cannot be decoded", qualified(obj), DecodeFunc)
		}
	}

	checkTags(pass)
	return nil
}

// collectPayloads scans every loaded package for types whose
// declaration carries //ocsml:wirepayload.
func collectPayloads(pass *vetkit.Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, pkg := range pass.Program.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !vetkit.CommentGroupHas(ts.Doc, "wirepayload") && !vetkit.CommentGroupHas(gd.Doc, "wirepayload") {
						continue
					}
					if obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						out[obj] = true
					}
				}
			}
		}
	}
	return out
}

// checkTags verifies every Tag* string constant in the program fits
// MaxCtlTag and that no two tags collide.
func checkTags(pass *vetkit.Pass) {
	maxTag := -1
	if obj, ok := pass.Pkg.Scope().Lookup("MaxCtlTag").(*types.Const); ok {
		if v, ok := constant.Int64Val(obj.Val()); ok {
			maxTag = int(v)
		}
	}
	byValue := map[string][]*types.Const{}
	var all []*types.Const
	for _, pkg := range pass.Program.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !strings.HasPrefix(name, "Tag") || c.Val().Kind() != constant.String {
				continue
			}
			all = append(all, c)
			byValue[constant.StringVal(c.Val())] = append(byValue[constant.StringVal(c.Val())], c)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Pos() < all[j].Pos() })
	for _, c := range all {
		val := constant.StringVal(c.Val())
		if maxTag >= 0 && len(val) > maxTag {
			pass.Reportf(c.Pos(), "control tag %s = %q is %d bytes, exceeding the codec's MaxCtlTag (%d): the wire layer would refuse to encode it", c.Name(), val, len(val), maxTag)
		}
		if peers := byValue[val]; len(peers) > 1 && peers[0] == c {
			var names []string
			for _, p := range peers {
				names = append(names, p.Pkg().Name()+"."+p.Name())
			}
			pass.Reportf(c.Pos(), "control tag value %q is declared by %s: handlers dispatch on the tag string, so duplicates are ambiguous", val, strings.Join(names, " and "))
		}
	}
}

func namedObj(pass *vetkit.Pass, expr ast.Expr) *types.TypeName {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return named.Obj()
}

func qualified(obj *types.TypeName) string {
	return obj.Pkg().Name() + "." + obj.Name()
}

func sortedKeys(m map[*types.TypeName]bool) []*types.TypeName {
	keys := make([]*types.TypeName, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return qualified(keys[i]) < qualified(keys[j]) })
	return keys
}

// PayloadNames returns the qualified names ("core.Piggyback", ...) of
// every //ocsml:wirepayload type in the loaded program, sorted — the
// registry as seen by tools that need it outside an analysis pass.
func PayloadNames(program *vetkit.Program) []string {
	pass := &vetkit.Pass{Program: program}
	var names []string
	for obj := range collectPayloads(pass) {
		names = append(names, qualified(obj))
	}
	sort.Strings(names)
	return names
}

// ---- fuzz corpus completeness (shared by cmd/ocsmlvet and the wire
// completeness test; it needs the real decoder, so it is not part of
// the static Run) ----

// ReadCorpus parses every "go test fuzz v1" seed file in dir and
// returns the raw frame of each, keyed by file name.
func ReadCorpus(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
			return nil, fmt.Errorf("wireexhaustive: %s is not a go fuzz corpus file", e.Name())
		}
		body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
		s, err := strconv.Unquote(body)
		if err != nil {
			return nil, fmt.Errorf("wireexhaustive: %s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(s)
	}
	return out, nil
}

// CheckCorpus decodes every corpus seed with decodeKind (which returns
// the payload kind name of a valid frame) and reports which of the
// wanted kinds have no seed. The empty-payload kind is conventionally
// named "nil".
func CheckCorpus(dir string, decodeKind func([]byte) (string, bool), want []string) (missing []string, err error) {
	seeds, err := ReadCorpus(dir)
	if err != nil {
		return nil, err
	}
	have := map[string]bool{}
	for _, frame := range seeds {
		if kind, ok := decodeKind(frame); ok {
			have[kind] = true
		}
	}
	for _, kind := range want {
		if !have[kind] {
			missing = append(missing, kind)
		}
	}
	sort.Strings(missing)
	return missing, nil
}
