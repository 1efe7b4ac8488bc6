package main

import "fmt"

// template is one TPC-H query with its substitution parameters opened up.
// A parameter tuple is a number in the mixed radix `radix`; render turns its
// digits into SQL. The ranges keep each predicate selective but, on the
// generated data, rarely empty: date windows keep their TPC-H lengths and
// slide over the seven years of orders.
type template struct {
	query  int
	radix  []int
	render func(v []int) string
}

var (
	adhocSegments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	adhocRegions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	adhocMetals    = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	adhocShipmodes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
)

var adhocTemplates = []template{
	{3, []int{5, 600, 90}, func(v []int) string {
		d := 900 + v[1]
		return fmt.Sprintf(`select l_orderkey, sum(l_revenue) as revenue, o_orderdate, o_shippriority
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on l_orderkey = o_orderkey
			where c_mktsegment = '%s' and o_orderdate < %d and l_shipdate > %d
			group by l_orderkey, o_orderdate, o_shippriority
			order by revenue desc, o_orderdate
			limit 10`, adhocSegments[v[0]], d, d-60+v[2])
	}},
	{4, []int{2200, 60}, func(v []int) string {
		return fmt.Sprintf(`select o_orderpriority, count(*) as order_count
			from orders
			join lineitem on l_orderkey = o_orderkey
			where o_orderdate >= %d and o_orderdate < %d and l_commitdate < l_receiptdate
			group by o_orderpriority
			order by o_orderpriority`, v[0], v[0]+60+v[1])
	}},
	{5, []int{5, 2000, 130}, func(v []int) string {
		return fmt.Sprintf(`select n_name, sum(l_revenue) as revenue
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on l_orderkey = o_orderkey
			join supplier on l_suppkey = s_suppkey
			join nation on s_nationkey = n_nationkey
			join region on n_regionkey = r_regionkey
			where c_nationkey = s_nationkey and r_name = '%s'
			  and o_orderdate >= %d and o_orderdate < %d
			group by n_name
			order by revenue desc`, adhocRegions[v[0]], v[1], v[1]+300+v[2])
	}},
	{6, []int{2000, 130, 8, 11}, func(v []int) string {
		c := float64(2+v[2]) / 100
		return fmt.Sprintf(`select sum(l_discrev)
			from lineitem
			where l_shipdate >= %d and l_shipdate < %d
			  and l_discount between %.2f and %.2f and l_quantity < %d`,
			v[0], v[0]+300+v[1], c-0.01, c+0.01, 20+v[3])
	}},
	{7, []int{1700, 200}, func(v []int) string {
		return fmt.Sprintf(`select n_name, sum(l_revenue) as revenue
			from supplier
			join lineitem on s_suppkey = l_suppkey
			join orders on o_orderkey = l_orderkey
			join customer on c_custkey = o_custkey
			join nation on s_nationkey = n_nationkey
			where l_shipdate >= %d and l_shipdate <= %d
			group by n_name
			order by n_name`, v[0], v[0]+600+v[1])
	}},
	{8, []int{5, 5, 700, 200}, func(v []int) string {
		d := 1000 + v[2]
		return fmt.Sprintf(`select n_name, sum(l_revenue) as revenue
			from part
			join lineitem on p_partkey = l_partkey
			join supplier on s_suppkey = l_suppkey
			join orders on o_orderkey = l_orderkey
			join customer on c_custkey = o_custkey
			join nation on c_nationkey = n_nationkey
			join region on n_regionkey = r_regionkey
			where r_name = '%s' and p_type like '%%%s'
			  and o_orderdate >= %d and o_orderdate <= %d
			group by n_name
			order by n_name`, adhocRegions[v[0]], adhocMetals[v[1]], d, d+600+v[3])
	}},
	{10, []int{2300, 60}, func(v []int) string {
		return fmt.Sprintf(`select c_custkey, c_name, sum(l_revenue) as revenue, c_acctbal, n_name
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on l_orderkey = o_orderkey
			join nation on c_nationkey = n_nationkey
			where o_orderdate >= %d and o_orderdate < %d and l_returnflag = 'R'
			group by c_custkey, c_name, c_acctbal, n_name
			order by revenue desc
			limit 20`, v[0], v[0]+60+v[1])
	}},
	{12, []int{7, 6, 2000, 130}, func(v []int) string {
		// Two distinct ship modes: the second index skips the first.
		a, b := v[0], v[1]
		if b >= a {
			b++
		}
		return fmt.Sprintf(`select l_shipmode, count(*) as line_count
			from orders
			join lineitem on o_orderkey = l_orderkey
			where l_shipmode in ('%s', '%s')
			  and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
			  and l_receiptdate >= %d and l_receiptdate < %d
			group by l_shipmode
			order by l_shipmode`, adhocShipmodes[a], adhocShipmodes[b], v[2], v[2]+300+v[3])
	}},
	{14, []int{2400, 25}, func(v []int) string {
		return fmt.Sprintf(`select p_type, sum(l_revenue) as revenue
			from lineitem
			join part on l_partkey = p_partkey
			where l_shipdate >= %d and l_shipdate < %d
			group by p_type
			order by revenue desc`, v[0], v[0]+20+v[1])
	}},
	{15, []int{2300, 60}, func(v []int) string {
		return fmt.Sprintf(`select s_suppkey, s_name, s_address, s_phone, sum(l_revenue) as total_revenue
			from supplier
			join lineitem on s_suppkey = l_suppkey
			where l_shipdate >= %d and l_shipdate < %d
			group by s_suppkey, s_name, s_address, s_phone
			order by total_revenue desc
			limit 10`, v[0], v[0]+60+v[1])
	}},
}

// adhocStride walks each template's parameter space. It is a prime larger
// than every radix, hence coprime to every space, so k ↦ start + k·stride
// visits each tuple once before repeating: statements never repeat within a
// run however many the engine gets through, with no memory of earlier ones.
const adhocStride = 7919

// adhocPass returns the k-th block of never-repeating statements, one per
// template. The seed picks where in each parameter space the walk starts;
// pass -1 (the warm-up) is a block the timed phase never reaches.
func adhocPass(seed int64, k int) []step {
	steps := make([]step, len(adhocTemplates))
	for i, t := range adhocTemplates {
		space := 1
		for _, r := range t.radix {
			space *= r
		}
		start := (seed*2654435761 + int64(i)*40503) % int64(space)
		p := int((start + int64(k)*adhocStride) % int64(space))
		if p < 0 {
			p += space
		}
		v := make([]int, len(t.radix))
		for j, r := range t.radix {
			v[j] = p % r
			p /= r
		}
		steps[i] = step{op: opQuery, query: t.query, sql: t.render(v)}
	}
	return steps
}
