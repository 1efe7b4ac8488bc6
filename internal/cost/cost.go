package cost

import (
	"fmt"
	"sort"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
)

// Executor resolves the subject that executes a node (for an extended plan,
// core.Assignment.Executor).
type Executor func(algebra.Node) authz.Subject

// Breakdown is the costed execution of a plan: the Section 7 decomposition
// Cq = Σn (Ccpu + Cio + Cnet_io), plus a wall-clock estimate assuming
// pipelined execution across subjects.
type Breakdown struct {
	CPU, IO, Net float64 // USD
	Seconds      float64 // performance estimate (critical path)
	PerNode      map[algebra.Node]NodeCost
}

// NodeCost is the cost contribution of one node.
type NodeCost struct {
	Subject      authz.Subject
	CPU, IO, Net float64
	OutBytes     float64
}

// Total returns the total economic cost in USD.
func (b Breakdown) Total() float64 { return b.CPU + b.IO + b.Net }

// String summarizes the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=$%.6g (cpu=$%.6g io=$%.6g net=$%.6g) time=%.3fs",
		b.Total(), b.CPU, b.IO, b.Net, b.Seconds)
}

// OfPlan prices an (extended) plan under the model. exec resolves node
// executors; schemes gives the encryption scheme of each encrypted
// attribute (used for ciphertext widths and operator slowdowns); profiles
// may be nil, in which case they are recomputed.
func OfPlan(root algebra.Node, exec Executor, schemes map[algebra.Attr]algebra.Scheme,
	profiles map[algebra.Node]profile.Profile, m *Model) Breakdown {
	if profiles == nil {
		profiles = profile.ForPlan(root)
	}
	b := Breakdown{PerNode: make(map[algebra.Node]NodeCost)}
	finish := make(map[algebra.Node]float64) // pipeline completion times

	algebra.PostOrder(root, func(n algebra.Node) {
		subj := exec(n)
		price := m.PriceOf(subj)
		outBytes := bytesOf(n, profiles[n], schemes)

		var nc NodeCost
		nc.Subject = subj
		nc.OutBytes = outBytes

		cpuSec := cpuSeconds(n, profiles, schemes)
		nc.CPU = cpuSec * price.CPUPerSec

		start := 0.0
		switch n.(type) {
		case *algebra.Base:
			nc.IO = outBytes * price.IOPerByte
		default:
			// Network transfer on every edge whose producer differs from
			// this node's executor; egress billed to the producer.
			for _, c := range n.Children() {
				cs := exec(c)
				childFinish := finish[c]
				if cs != subj {
					cb := bytesOf(c, profiles[c], schemes)
					nc.Net += cb * m.NetPerByte(cs, subj)
					if m.BandwidthBps != nil {
						childFinish += cb * 8 / m.BandwidthBps(cs, subj)
					}
				}
				if childFinish > start {
					start = childFinish
				}
			}
		}
		finish[n] = start + cpuSec

		b.CPU += nc.CPU
		b.IO += nc.IO
		b.Net += nc.Net
		b.PerNode[n] = nc
	})

	// Final delivery of the result to the user.
	if m.User != "" && exec(root) != m.User {
		rb := bytesOf(root, profiles[root], schemes)
		b.Net += rb * m.NetPerByte(exec(root), m.User)
		if m.BandwidthBps != nil {
			finish[root] += rb * 8 / m.BandwidthBps(exec(root), m.User)
		}
	}
	b.Seconds = finish[root]
	return b
}

// bytesOf estimates the size of the relation a node produces, inflating
// encrypted attributes to their ciphertext widths.
func bytesOf(n algebra.Node, pr profile.Profile, schemes map[algebra.Attr]algebra.Scheme) float64 {
	st := n.Stats()
	var width float64
	for _, a := range n.Schema() {
		w, ok := st.Widths[a]
		if !ok {
			w = algebra.DefaultWidth
		}
		if pr.VE.Has(a) {
			w = CipherWidth(schemeOf(schemes, a), w)
		}
		width += w
	}
	return st.Rows * width
}

func schemeOf(schemes map[algebra.Attr]algebra.Scheme, a algebra.Attr) algebra.Scheme {
	if s, ok := schemes[a]; ok {
		return s
	}
	return algebra.SchemeDeterministic
}

// OpTuples returns the plaintext CPU seconds per tuple of relational
// operator n and the tuples it is charged on: its output rows for a scan and
// a product, the sum of its inputs' rows otherwise (encryption and
// decryption cost 0 per tuple here: cpuSeconds prices them per value). It is
// the one price list of operator CPU: the exact cost and the assignment DP
// both read it.
func OpTuples(n algebra.Node) (secPerTuple, tuples float64) {
	var in float64
	for _, c := range n.Children() {
		in += c.Stats().Rows
	}
	switch n.(type) {
	case *algebra.Base:
		return secPerTupleScan, n.Stats().Rows
	case *algebra.Project:
		return secPerTupleProject, in
	case *algebra.Select:
		return secPerTupleSelect, in
	case *algebra.Product:
		return secPerTupleJoin, n.Stats().Rows
	case *algebra.Join:
		return secPerTupleJoin, in
	case *algebra.GroupBy:
		return secPerTupleGroup, in
	case *algebra.UDF:
		return secPerTupleUDF, in
	}
	return 0, in
}

// cpuSeconds estimates the CPU time of evaluating a node.
func cpuSeconds(n algebra.Node, profiles map[algebra.Node]profile.Profile,
	schemes map[algebra.Attr]algebra.Scheme) float64 {
	encIn := func(i int) algebra.AttrSet { return profiles[n.Children()[i]].VE }
	per, tuples := OpTuples(n)
	// Operating over ciphertexts: the most expensive scheme among the
	// encrypted attributes the operator computes on sets the per-tuple cost.
	overCipher := func(attrs, enc algebra.AttrSet) {
		for a := range attrs.Intersect(enc).All() {
			if s := OpSecondsOverCipher(schemeOf(schemes, a)); s > per {
				per = s
			}
		}
	}

	switch x := n.(type) {
	case *algebra.Select:
		overCipher(x.Pred.Attrs(), encIn(0))
	case *algebra.Join:
		overCipher(x.Cond.Attrs(), encIn(0).Union(encIn(1)))
	case *algebra.GroupBy:
		overCipher(x.AggAttrs(), encIn(0))
	case *algebra.Encrypt:
		for _, a := range x.Attrs {
			per += EncSeconds(schemeOf(x.Schemes, a))
		}
	case *algebra.Decrypt:
		for _, a := range x.Attrs {
			per += DecSeconds(schemeOf(schemes, a))
		}
	}
	return tuples * per
}

// FormatPerNode renders the per-node costs as a table sorted by cost.
func (b Breakdown) FormatPerNode() string {
	type row struct {
		n algebra.Node
		c NodeCost
	}
	rows := make([]row, 0, len(b.PerNode))
	for n, c := range b.PerNode {
		rows = append(rows, row{n, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		ti := rows[i].c.CPU + rows[i].c.IO + rows[i].c.Net
		tj := rows[j].c.CPU + rows[j].c.IO + rows[j].c.Net
		return ti > tj
	})
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-40s @%-6s cpu=$%.3e io=$%.3e net=$%.3e out=%.0fB\n",
			truncOp(r.n.Op()), r.c.Subject, r.c.CPU, r.c.IO, r.c.Net, r.c.OutBytes)
	}
	return sb.String()
}

func truncOp(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
