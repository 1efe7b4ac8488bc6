// Package dispatch implements query dispatch (Section 6, Figure 8): an
// extended, assigned query plan is partitioned into per-subject fragments;
// each fragment is rendered as the sub-query the subject executes
// (including its encryption/decryption steps and references to the
// sub-requests it consumes), bundled with the keys the subject needs, and
// shipped in a message signed with the user's private key and encrypted for
// the recipient's public key.
//
// Partition is the only code that splits an extended plan into fragments:
// distsim's runtime runs one worker per fragment of the same Dispatch, so
// the requests the user signs are the fragments that execute. Partition
// renders no text; a fragment's sub-query is produced by SQL when it is
// read (Format, SealDispatch).
package dispatch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
)

// Fragment is one sub-query of the dispatch: the maximal subtree of
// operations executed by a single subject, the fragments it consumes, and
// the keys it needs for its encryption/decryption operations.
type Fragment struct {
	ID      string
	Subject authz.Subject
	Root    algebra.Node // subtree root within the extended plan
	// Consumer is the operation, in the consuming fragment, that reads this
	// fragment's result; nil for the root fragment. Root → Consumer is the
	// one cross-subject edge leaving the fragment: it ships to Consumer's
	// executor and carries the partial mark ext.Partials[Root], if any.
	Consumer algebra.Node
	// Index is the fragment's position in Dispatch.Fragments.
	Index int
	// Inputs are the fragments whose results this fragment consumes, in
	// operand order. Base relations read where they are hosted are not
	// inputs.
	Inputs []*Fragment
	// KeyIDs are the query-plan keys communicated to the subject for this
	// fragment (Definition 6.1: keys go to the subjects performing the
	// encryption/decryption operations).
	KeyIDs []string

	ext *core.ExtendedPlan
}

// Dispatch is a fragment decomposition of an extended plan: the root
// fragment produces the query result; Fragments lists every fragment with
// inputs before their consumers.
type Dispatch struct {
	Plan      *core.ExtendedPlan // the plan partitioned
	Root      *Fragment
	Fragments []*Fragment
}

// Partition splits an extended plan into per-subject fragments.
func Partition(ext *core.ExtendedPlan) *Dispatch {
	d := &Dispatch{Plan: ext}
	counter := make(map[authz.Subject]int)
	executor := ext.Assign.Executor

	var build func(n, consumer algebra.Node) *Fragment
	build = func(n, consumer algebra.Node) *Fragment {
		subj := executor(n)
		counter[subj]++
		id := "req" + string(subj)
		if counter[subj] > 1 {
			id += "_" + strconv.Itoa(counter[subj])
		}
		f := &Fragment{ID: id, Subject: subj, Root: n, Consumer: consumer, ext: ext}

		// Members: the connected same-subject subtree rooted at n.
		// Frontier children become inputs (recursively built first).
		var walk func(m algebra.Node)
		walk = func(m algebra.Node) {
			for _, c := range m.Children() {
				if executor(c) == subj {
					walk(c)
				} else {
					f.Inputs = append(f.Inputs, build(c, m))
				}
			}
			f.KeyIDs = addNodeKeys(f.KeyIDs, m)
		}
		walk(n)
		sort.Strings(f.KeyIDs)
		f.KeyIDs = dedup(f.KeyIDs)
		f.Index = len(d.Fragments)
		d.Fragments = append(d.Fragments, f)
		return f
	}
	d.Root = build(ext.Root, nil)
	return d
}

// addNodeKeys appends the key ids used by an encryption/decryption node.
func addNodeKeys(ids []string, n algebra.Node) []string {
	switch x := n.(type) {
	case *algebra.Encrypt:
		for _, id := range x.KeyIDs {
			ids = append(ids, id)
		}
	case *algebra.Decrypt:
		for _, id := range x.KeyIDs {
			ids = append(ids, id)
		}
	}
	return ids
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// SQL renders the fragment as the sub-query of Figure 8.
func (f *Fragment) SQL() string { return renderFragment(f, f.ext) }

// renderFragment renders the fragment as a Figure 8-style sub-query, with
// ⟦reqS⟧ references for consumed fragments. A partial-aggregated edge
// (core.ExtendedPlan.Partials) is rendered where it runs: the producer's
// sub-query carries the moved selections and the γ-partial fold, the
// consumer's only the merging group-by over the shipped partials.
func renderFragment(f *Fragment, ext *core.ExtendedPlan) string {
	merges := make(map[algebra.Node]algebra.Node, len(ext.Partials)) // group-by → shipped node
	for shipped, pe := range ext.Partials {
		merges[pe.GroupBy] = shipped
	}
	inputIdx := 0
	var render func(n algebra.Node, isRoot bool) string
	render = func(n algebra.Node, isRoot bool) string {
		if !isRoot && ext.Assign.Executor(n) != f.Subject {
			in := f.Inputs[inputIdx]
			inputIdx++
			return "⟦" + in.ID + "⟧"
		}
		if pe, ok := ext.Partials[n]; isRoot && ok {
			out := render(n, false)
			for i := len(pe.Selects) - 1; i >= 0; i-- {
				out = fmt.Sprintf("σ[%s](%s)", pe.Selects[i].Pred, out)
			}
			return "γ-partial" + strings.TrimPrefix(renderGroupBy(pe.GroupBy, out), "γ")
		}
		switch x := n.(type) {
		case *algebra.Base:
			return x.Name
		case *algebra.Project:
			return fmt.Sprintf("π[%s](%s)", attrList(x.Attrs), render(x.Child, false))
		case *algebra.Select:
			return fmt.Sprintf("σ[%s](%s)", x.Pred, render(x.Child, false))
		case *algebra.Product:
			return fmt.Sprintf("(%s × %s)", render(x.L, false), render(x.R, false))
		case *algebra.Join:
			return fmt.Sprintf("(%s ⋈[%s] %s)", render(x.L, false), x.Cond, render(x.R, false))
		case *algebra.GroupBy:
			if shipped, ok := merges[x]; ok {
				return renderGroupBy(x, render(shipped, false))
			}
			return renderGroupBy(x, render(x.Child, false))
		case *algebra.UDF:
			return fmt.Sprintf("µ[%s(%s)](%s)", x.Name, attrList(x.Args), render(x.Child, false))
		case *algebra.Encrypt:
			parts := make([]string, len(x.Attrs))
			for i, a := range x.Attrs {
				parts[i] = fmt.Sprintf("encrypt(%s,%s)", a, x.KeyIDs[a])
			}
			return fmt.Sprintf("%s(%s)", strings.Join(parts, ","), render(x.Child, false))
		case *algebra.Decrypt:
			parts := make([]string, len(x.Attrs))
			for i, a := range x.Attrs {
				parts[i] = fmt.Sprintf("decrypt(%s,%s)", a, x.KeyIDs[a])
			}
			return fmt.Sprintf("%s(%s)", strings.Join(parts, ","), render(x.Child, false))
		}
		return "?"
	}
	return fmt.Sprintf("%s@%s ← %s", f.ID, f.Subject, render(f.Root, true))
}

// renderGroupBy renders γ[keys; aggs](child).
func renderGroupBy(g *algebra.GroupBy, child string) string {
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.String()
	}
	return fmt.Sprintf("γ[%s; %s](%s)", attrList(g.Keys), strings.Join(aggs, ","), child)
}

func attrList(attrs []algebra.Attr) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// Format renders the whole dispatch, inputs before consumers.
func (d *Dispatch) Format() string {
	var sb strings.Builder
	for _, f := range d.Fragments {
		sb.WriteString(f.SQL())
		if len(f.KeyIDs) > 0 {
			sb.WriteString("   keys: " + strings.Join(f.KeyIDs, ","))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
