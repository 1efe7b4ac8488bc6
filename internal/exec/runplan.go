package exec

import (
	"mpq/internal/planner"
)

// RunPlan executes a planned query end to end: evaluates the algebra tree,
// applies ordering and limit, and projects the output columns. It returns
// the result table and the display headers.
func (e *Executor) RunPlan(p *planner.Plan) (*Table, []string, error) {
	t, err := e.Run(p.Root)
	if err != nil {
		return nil, nil, err
	}
	if len(p.OrderBy) > 0 {
		specs := make([]SortSpec, len(p.OrderBy))
		for i, o := range p.OrderBy {
			specs[i] = SortSpec{Index: o.Index, Desc: o.Desc}
		}
		if err := t.SortBy(specs); err != nil {
			return nil, nil, err
		}
	}
	indices := make([]int, len(p.Output))
	headers := make([]string, len(p.Output))
	for i, oc := range p.Output {
		indices[i] = oc.Index
		headers[i] = oc.Name
	}
	out := t.Project(indices)
	if p.Limit >= 0 && len(out.Rows) > p.Limit {
		out.Rows = out.Rows[:p.Limit]
	}
	return out, headers, nil
}

// DecryptTable returns a copy of the relation with every encrypted value
// the executor holds keys for decrypted, leaving t untouched. This is the
// user-side finalization step on a whole relation: the rows are
// columnarized and decrypted by DecryptBatch, column by column.
func (e *Executor) DecryptTable(t *Table) (*Table, error) {
	b, err := NewBatchFromRows(t.Rows, len(t.Schema))
	if err == nil {
		b, err = e.DecryptBatch(b)
	}
	if err != nil {
		return nil, err
	}
	out := NewTable(t.Schema)
	out.Rows = b.Rows()
	return out, nil
}
