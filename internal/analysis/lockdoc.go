package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrderDoc renders the program's declared lock hierarchy as the
// golden docs/lock-order.md. Output is deterministic and position-free
// (field names, not line numbers), so it only changes when an annotation
// changes; declaration paths are relative to the program root.
func (p *Program) LockOrderDoc() string {
	h := p.lockHierarchy()
	var b strings.Builder
	b.WriteString("# Lock order\n\n")
	b.WriteString("Generated from `//sqlcm:lock`, `//sqlcm:guards`, `//sqlcm:guarded-by`\n")
	b.WriteString("and `//sqlcm:cow` annotations by `sqlcm-vet -lockdoc -write`.\n")
	b.WriteString("Do not edit by hand: `make lockdep` (and CI) fail when this file is\n")
	b.WriteString("stale relative to the annotations.\n\n")
	b.WriteString("A class may be acquired while holding only the classes it is declared\n")
	b.WriteString("`after` (transitively). Classes with no `after` clause are roots: they\n")
	b.WriteString("must be the outermost (or only) lock a goroutine holds. The static\n")
	b.WriteString("checker (`sqlcm-vet -code`) enforces this order at build time; the\n")
	b.WriteString("`sqlcmlockdep` build tag enforces it again at runtime.\n\n")
	b.WriteString("Guarded fields are the struct fields each class protects, declared\n")
	b.WriteString("with `//sqlcm:guards` on the mutex (or `//sqlcm:guarded-by` /\n")
	b.WriteString("`//sqlcm:cow` on the field) and enforced by the data-protection\n")
	b.WriteString("analyzers in `sqlcm-vet -code`.\n\n")

	names := sortedKeys(h.classes)
	b.WriteString("## Classes\n\n")
	b.WriteString("| Class | May be acquired while holding | Guarded fields | Declared on |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, n := range names {
		c := h.classes[n]
		after := "— (root)"
		if len(c.after) > 0 {
			after = strings.Join(sortedKeys(c.after), ", ")
		}
		guards := "—"
		if len(c.guards) > 0 {
			gs := append([]string(nil), c.guards...)
			sort.Strings(gs)
			guards = fmt.Sprintf("`%s`", strings.Join(gs, "`, `"))
		}
		fields := append([]string(nil), c.fields...)
		sort.Strings(fields)
		decl := fmt.Sprintf("`%s` (%s)", strings.Join(fields, "`, `"), relPath(p.Fset.Position(c.decl), p.RootDir))
		b.WriteString(fmt.Sprintf("| %s | %s | %s | %s |\n", n, after, guards, decl))
	}

	b.WriteString("\n## Declared edges\n\n")
	edges := 0
	for _, n := range names {
		for _, a := range sortedKeys(h.classes[n].after) {
			b.WriteString(fmt.Sprintf("- %s -> %s\n", a, n))
			edges++
		}
	}
	if edges == 0 {
		b.WriteString("(none: every class is a root)\n")
	}

	b.WriteString("\n## Chains\n\n")
	chains := h.chains(names)
	if len(chains) == 0 {
		b.WriteString("(no nesting declared)\n")
	}
	for _, ch := range chains {
		b.WriteString(fmt.Sprintf("- %s\n", strings.Join(ch, " -> ")))
	}
	return b.String()
}

// chains lists every maximal root-to-leaf path through the declared
// DAG, sorted. The SQLCM hierarchies are short, so full enumeration is
// cheap.
func (h *lockHierarchy) chains(names []string) [][]string {
	succs := map[string][]string{}
	hasPred := map[string]bool{}
	hasSucc := map[string]bool{}
	for _, n := range names {
		for _, a := range sortedKeys(h.classes[n].after) {
			if _, ok := h.classes[a]; !ok {
				continue
			}
			succs[a] = append(succs[a], n)
			hasPred[n] = true
			hasSucc[a] = true
		}
	}
	var chains [][]string
	var extend func(path []string)
	extend = func(path []string) {
		tip := path[len(path)-1]
		if len(succs[tip]) == 0 {
			if len(path) > 1 {
				chains = append(chains, append([]string(nil), path...))
			}
			return
		}
		for _, next := range succs[tip] {
			extend(append(path, next))
		}
	}
	for _, n := range names {
		if !hasPred[n] && hasSucc[n] {
			extend([]string{n})
		}
	}
	sort.Slice(chains, func(i, j int) bool {
		return strings.Join(chains[i], " ") < strings.Join(chains[j], " ")
	})
	return chains
}

func relPath(pos token.Position, root string) string {
	if root == "" {
		return pos.Filename
	}
	if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return pos.Filename
}
