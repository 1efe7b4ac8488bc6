package main

// Example pins every byte main prints for the TPC-H federation round,
// Figure 8's sealed dispatch included. A change to planning, assignment,
// dispatch or execution that alters the output fails here.
func Example() {
	main()
	// Output:
	// == TPC-H Q10: returned item reporting ==
	//
	// 			select c_custkey, c_name, sum(l_revenue) as revenue, c_acctbal, n_name
	// 			from customer
	// 			join orders on c_custkey = o_custkey
	// 			join lineitem on l_orderkey = o_orderkey
	// 			join nation on c_nationkey = n_nationkey
	// 			where o_orderdate >= 820 and o_orderdate < 910 and l_returnflag = 'R'
	// 			group by c_custkey, c_name, c_acctbal, n_name
	// 			order by revenue desc
	// 			limit 20
	//
	// == Optimized assignment ==
	// γ[customer.c_custkey,customer.c_name,customer.c_acctbal,nation.n_name; sum(lineitem.l_revenue)]   @X  v: {} ⟨{customer.c_acctbal, customer.c_custkey, customer.c_name, lineitem.l_revenue, nation.n_name}⟩  i: {} ⟨{customer.c_acctbal, customer.c_custkey, customer.c_name, lineitem.l_returnflag, nation.n_name, orders.o_orderdate}⟩  ≃: {{customer.c_custkey, orders.o_custkey}, {customer.c_nationkey, nation.n_nationkey}, {lineitem.l_orderkey, orders.o_orderkey}}
	//   ⋈[customer.c_nationkey = nation.n_nationkey]   @X  v: {} ⟨{customer.c_acctbal, customer.c_custkey, customer.c_name, customer.c_nationkey, lineitem.l_orderkey, lineitem.l_returnflag, lineitem.l_revenue, nation.n_name, nation.n_nationkey, orders.o_custkey, orders.o_orderdate, orders.o_orderkey}⟩  i: {} ⟨{lineitem.l_returnflag, orders.o_orderdate}⟩  ≃: {{customer.c_custkey, orders.o_custkey}, {customer.c_nationkey, nation.n_nationkey}, {lineitem.l_orderkey, orders.o_orderkey}}
	//     ⋈[lineitem.l_orderkey = orders.o_orderkey]   @X  v: {} ⟨{customer.c_acctbal, customer.c_custkey, customer.c_name, customer.c_nationkey, lineitem.l_orderkey, lineitem.l_returnflag, lineitem.l_revenue, orders.o_custkey, orders.o_orderdate, orders.o_orderkey}⟩  i: {} ⟨{lineitem.l_returnflag, orders.o_orderdate}⟩  ≃: {{customer.c_custkey, orders.o_custkey}, {lineitem.l_orderkey, orders.o_orderkey}}
	//       ⋈[customer.c_custkey = orders.o_custkey]   @X  v: {} ⟨{customer.c_acctbal, customer.c_custkey, customer.c_name, customer.c_nationkey, orders.o_custkey, orders.o_orderdate, orders.o_orderkey}⟩  i: {} ⟨{orders.o_orderdate}⟩  ≃: {{customer.c_custkey, orders.o_custkey}}
	//         encrypt[customer.c_acctbal:det,customer.c_custkey:det,customer.c_name:det,customer.c_nationkey:det]   @A1  v: {} ⟨{customer.c_acctbal, customer.c_custkey, customer.c_name, customer.c_nationkey}⟩  i: {} ⟨{}⟩  ≃: {}
	//           customer(c_custkey,c_name,c_nationkey,c_acctbal)   v: {customer.c_acctbal, customer.c_custkey, customer.c_name, customer.c_nationkey} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//         σ[(orders.o_orderdate >= 820) AND (orders.o_orderdate < 910)]   @X  v: {} ⟨{orders.o_custkey, orders.o_orderdate, orders.o_orderkey}⟩  i: {} ⟨{orders.o_orderdate}⟩  ≃: {}
	//           encrypt[orders.o_custkey:det,orders.o_orderdate:ope,orders.o_orderkey:det]   @A1  v: {} ⟨{orders.o_custkey, orders.o_orderdate, orders.o_orderkey}⟩  i: {} ⟨{}⟩  ≃: {}
	//             orders(o_orderkey,o_custkey,o_orderdate)   v: {orders.o_custkey, orders.o_orderdate, orders.o_orderkey} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//       σ[lineitem.l_returnflag = 'R']   @X  v: {} ⟨{lineitem.l_orderkey, lineitem.l_returnflag, lineitem.l_revenue}⟩  i: {} ⟨{lineitem.l_returnflag}⟩  ≃: {}
	//         encrypt[lineitem.l_orderkey:det,lineitem.l_returnflag:det,lineitem.l_revenue:phe]   @A1  v: {} ⟨{lineitem.l_orderkey, lineitem.l_returnflag, lineitem.l_revenue}⟩  i: {} ⟨{}⟩  ≃: {}
	//           lineitem(l_orderkey,l_revenue,l_returnflag)   v: {lineitem.l_orderkey, lineitem.l_returnflag, lineitem.l_revenue} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//     encrypt[nation.n_name:det,nation.n_nationkey:det]   @A2  v: {} ⟨{nation.n_name, nation.n_nationkey}⟩  i: {} ⟨{}⟩  ≃: {}
	//       nation(n_nationkey,n_name)   v: {nation.n_name, nation.n_nationkey} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	// cost: total=$2.98918e-05 (cpu=$2.46858e-05 io=$1.6216e-06 net=$3.58438e-06) time=0.146s
	//
	// == Dispatch fragments ==
	// reqA1@A1 ← encrypt(customer.c_acctbal,kc_acctbal),encrypt(customer.c_custkey,kc_custkeyo_custkey),encrypt(customer.c_name,kc_name),encrypt(customer.c_nationkey,kc_nationkeyn_nationkey)(customer)   keys: kc_acctbal,kc_custkeyo_custkey,kc_name,kc_nationkeyn_nationkey
	// reqA1_2@A1 ← encrypt(orders.o_custkey,kc_custkeyo_custkey),encrypt(orders.o_orderdate,ko_orderdate),encrypt(orders.o_orderkey,kl_orderkeyo_orderkey)(orders)   keys: kc_custkeyo_custkey,kl_orderkeyo_orderkey,ko_orderdate
	// reqA1_3@A1 ← encrypt(lineitem.l_orderkey,kl_orderkeyo_orderkey),encrypt(lineitem.l_returnflag,kl_returnflag),encrypt(lineitem.l_revenue,kl_revenue)(lineitem)   keys: kl_orderkeyo_orderkey,kl_returnflag,kl_revenue
	// reqA2@A2 ← encrypt(nation.n_name,kn_name),encrypt(nation.n_nationkey,kc_nationkeyn_nationkey)(nation)   keys: kc_nationkeyn_nationkey,kn_name
	// reqX@X ← γ[customer.c_custkey,customer.c_name,customer.c_acctbal,nation.n_name; sum(lineitem.l_revenue)]((((⟦reqA1⟧ ⋈[customer.c_custkey = orders.o_custkey] σ[(orders.o_orderdate >= 820) AND (orders.o_orderdate < 910)](⟦reqA1_2⟧)) ⋈[lineitem.l_orderkey = orders.o_orderkey] σ[lineitem.l_returnflag = 'R'](⟦reqA1_3⟧)) ⋈[customer.c_nationkey = nation.n_nationkey] ⟦reqA2⟧))
	//
	// sealed 5 sub-queries (signed by U, encrypted per recipient)
	//   reqA1 verified by A1
	//   reqA1_2 verified by A1
	//   reqA1_3 verified by A1
	//   reqA2 verified by A2
	//   reqX verified by X
	//
	// == Distributed result (20 rows) vs centralized (20 rows) ==
	// centralized:
	// c_custkey  c_name              revenue      c_acctbal  n_name
	// ---------  ------------------  -----------  ---------  -------------
	// 132        Customer#000000132  126752.7500  643.0900   BRAZIL
	// 28         Customer#000000028  119128.4500  9096.6700  IRAQ
	// 63         Customer#000000063  115190.5800  6245.9700  UNITED STATES
	// 183        Customer#000000183  97757.4500   8491.7600  CHINA
	// 37         Customer#000000037  96917.8200   2375.3400  GERMANY
	// distributed:
	// c_custkey  c_name              revenue      c_acctbal  n_name
	// ---------  ------------------  -----------  ---------  -------------
	// 132        Customer#000000132  126752.7500  643.0900   BRAZIL
	// 28         Customer#000000028  119128.4500  9096.6700  IRAQ
	// 63         Customer#000000063  115190.5800  6245.9700  UNITED STATES
	// 183        Customer#000000183  97757.4500   8491.7600  CHINA
	// 37         Customer#000000037  96917.8200   2375.3400  GERMANY
	//
	// == Network ledger: 4 transfers, 15366 rows total ==
	//   A1 → X: 300 rows (for ⋈[customer.c_custkey = orders.o_custkey])
	//   A1 → X: 3000 rows (for σ[(orders.o_orderdate >= 820) AND (orders.o_...)
	//   A1 → X: 12041 rows (for σ[lineitem.l_returnflag = 'R'])
	//   A2 → X: 25 rows (for ⋈[customer.c_nationkey = nation.n_nationkey])
}
