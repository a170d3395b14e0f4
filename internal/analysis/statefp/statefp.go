// Package statefp computes a static fingerprint of the simulator's
// checkpointed state schema.
//
// Every type that implements the snapshot protocol (SaveState and
// LoadState methods) contributes one fingerprint: a SHA-256 over the
// canonical description of its serialized fields, with in-module named
// struct types expanded transitively so a field added three levels down
// still changes the hash. A nested type that is checkpointed itself is
// named instead of expanded: its own fingerprint gates it. Fields
// excluded from serialization with `//simlint:ok checkpointcov`
// (construction-time configuration) are excluded from the fingerprint
// too: they are not part of the on-disk format.
//
// The fingerprints are diffed against a committed golden
// (internal/sim/checkpoint/testdata/schema_golden.json). Schema drift
// without a checkpoint.Version bump fails the gate; a Version bump
// without regenerating the golden fails it too. The golden is the
// reviewable artifact: a checkpoint-format change shows up in the PR
// diff as changed field lists, not as a silent byte-level divergence
// discovered by the whole-simulation differential long after the edit.
package statefp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"

	"cloudsuite/internal/analysis"
)

// versionPackage is the module-relative package whose Version constant
// names the checkpoint format revision.
const versionPackage = "internal/sim/checkpoint"

// Schema is the full state-schema snapshot: the checkpoint format
// version plus one fingerprint per checkpointed type.
type Schema struct {
	Version int64                 `json:"version"`
	Types   map[string]TypeSchema `json:"types"`
}

// TypeSchema describes one checkpointed type.
type TypeSchema struct {
	// Fingerprint is hex SHA-256 over the canonical (transitively
	// expanded) serialized-field description.
	Fingerprint string `json:"fingerprint"`
	// Fields is the human-readable serialized field list, in declaration
	// order, for reviewing golden diffs.
	Fields []string `json:"fields"`
}

// Compute loads the module rooted at root and fingerprints every
// checkpointed type in it.
func Compute(root string) (*Schema, error) {
	l, err := analysis.ModuleLoader(root)
	if err != nil {
		return nil, fmt.Errorf("statefp: %w", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, fmt.Errorf("statefp: %w", err)
	}
	s := &Schema{Types: map[string]TypeSchema{}}
	if ver, ok := checkpointVersion(l); ok {
		s.Version = ver
	}
	for _, pkg := range pkgs {
		exempt := analysis.Exempted(pkg, analysis.CheckpointCov.Name)
		scope := pkg.Pkg.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || !isCheckpointed(tn.Type()) {
				continue
			}
			key := pkg.Pkg.Path() + "." + tn.Name()
			s.Types[key] = fingerprintType(l, exempt, key, st)
		}
	}
	return s, nil
}

// checkpointVersion reads the Version constant out of the module's
// checkpoint package, if it has one.
func checkpointVersion(l *analysis.Loader) (int64, bool) {
	pkg, err := l.Load(l.Prefix + "/" + versionPackage)
	if err != nil {
		return 0, false
	}
	c, ok := pkg.Pkg.Scope().Lookup("Version").(*types.Const)
	if !ok {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(c.Val()))
	return v, ok
}

// isCheckpointed reports whether *T declares the snapshot protocol
// itself. Methods promoted from an embedded field serialize only that
// field, which is fingerprinted as its own type, so a type that merely
// embeds a checkpointed one (core.Measurement embeds
// counters.Counters) is not checkpointed state; checkpointcov draws
// the same line.
func isCheckpointed(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	var save, load bool
	for i := 0; i < ms.Len(); i++ {
		if len(ms.At(i).Index()) > 1 {
			continue // promoted through an embedded field
		}
		switch ms.At(i).Obj().Name() {
		case "SaveState":
			save = true
		case "LoadState":
			load = true
		}
	}
	return save && load
}

// fingerprintType builds the canonical description of the serialized
// fields of the struct st, named key, and hashes it. A field is left
// out when exempt covers it: the //simlint:ok checkpointcov rule
// checkpointcov applies at the field's position.
func fingerprintType(l *analysis.Loader, exempt func(token.Pos) bool, key string, st *types.Struct) TypeSchema {
	var canon strings.Builder
	fmt.Fprintf(&canon, "type %s\n", key)
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if exempt(fv.Pos()) {
			continue
		}
		fields = append(fields, fv.Name()+" "+types.TypeString(fv.Type(), pkgPathQualifier))
		fmt.Fprintf(&canon, "%s %s\n", fv.Name(), canonType(l, fv.Type(), map[*types.Named]bool{}))
	}
	sum := sha256.Sum256([]byte(canon.String()))
	return TypeSchema{Fingerprint: hex.EncodeToString(sum[:]), Fields: fields}
}

func pkgPathQualifier(p *types.Package) string { return p.Path() }

// canonType renders t canonically for hashing: in-module named struct
// types are expanded structurally (so nested field changes propagate
// into every containing fingerprint), cycles fall back to the qualified
// name, everything else uses the fully-qualified type string. A nested
// type that is checkpointed itself renders by name: its own entry
// guards its layout and honours its checkpointcov exemptions, which a
// structural expansion here would not.
func canonType(l *analysis.Loader, t types.Type, seen map[*types.Named]bool) string {
	switch u := t.(type) {
	case *types.Pointer:
		return "*" + canonType(l, u.Elem(), seen)
	case *types.Slice:
		return "[]" + canonType(l, u.Elem(), seen)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", u.Len(), canonType(l, u.Elem(), seen))
	case *types.Map:
		return fmt.Sprintf("map[%s]%s", canonType(l, u.Key(), seen), canonType(l, u.Elem(), seen))
	case *types.Named:
		name := types.TypeString(u, pkgPathQualifier)
		pkg := u.Obj().Pkg()
		if pkg == nil || !l.Local(pkg.Path()) || seen[u] || isCheckpointed(u) {
			return name
		}
		st, ok := u.Underlying().(*types.Struct)
		if !ok {
			return name + "=" + canonType(l, u.Underlying(), seen)
		}
		seen[u] = true
		var b strings.Builder
		b.WriteString(name)
		b.WriteString("{")
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(fv.Name())
			b.WriteString(" ")
			b.WriteString(canonType(l, fv.Type(), seen))
		}
		b.WriteString("}")
		delete(seen, u)
		return b.String()
	case *types.Struct:
		var b strings.Builder
		b.WriteString("struct{")
		for i := 0; i < u.NumFields(); i++ {
			fv := u.Field(i)
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(fv.Name())
			b.WriteString(" ")
			b.WriteString(canonType(l, fv.Type(), seen))
		}
		b.WriteString("}")
		return b.String()
	default:
		return types.TypeString(t, pkgPathQualifier)
	}
}

// Diff compares the current schema against the committed golden and
// returns human-readable gate failures, empty when the golden is
// faithful. The rule: any schema change requires both a
// checkpoint.Version bump and a regenerated golden in the same change.
func Diff(golden, cur *Schema) []string {
	var changes []string
	keys := map[string]bool{}
	for k := range golden.Types {
		keys[k] = true
	}
	for k := range cur.Types {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		g, inGolden := golden.Types[k]
		c, inCur := cur.Types[k]
		switch {
		case !inGolden:
			changes = append(changes, fmt.Sprintf("new checkpointed type %s (fields: %s)", k, strings.Join(c.Fields, ", ")))
		case !inCur:
			changes = append(changes, fmt.Sprintf("checkpointed type %s removed", k))
		case g.Fingerprint != c.Fingerprint:
			changes = append(changes, fmt.Sprintf("schema of %s changed: golden fields [%s], current fields [%s]",
				k, strings.Join(g.Fields, ", "), strings.Join(c.Fields, ", ")))
		}
	}
	var problems []string
	switch {
	case len(changes) > 0 && cur.Version == golden.Version:
		problems = append(problems,
			fmt.Sprintf("checkpointed state schema drifted without a checkpoint.Version bump (still %d): bump Version and regenerate the golden (statefp -write)", cur.Version))
		problems = append(problems, changes...)
	case len(changes) > 0:
		problems = append(problems,
			fmt.Sprintf("checkpoint.Version bumped (%d -> %d) but the schema golden was not regenerated: run statefp -write and commit it", golden.Version, cur.Version))
		problems = append(problems, changes...)
	case cur.Version != golden.Version:
		problems = append(problems,
			fmt.Sprintf("checkpoint.Version changed (%d -> %d) with no schema change: regenerate the golden (statefp -write) so it records the live version", golden.Version, cur.Version))
	}
	return problems
}

// Load reads a golden schema file.
func Load(path string) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("statefp: parsing golden %s: %w", path, err)
	}
	if s.Types == nil {
		s.Types = map[string]TypeSchema{}
	}
	return &s, nil
}

// Marshal renders a schema as the canonical golden file contents.
func Marshal(s *Schema) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
