package main

// Example pins every byte main prints for the paper's running example,
// Figure 8's dispatch included. A change to planning, assignment, dispatch
// or execution that alters the output fails here.
func Example() {
	main()
	// Output:
	// == Overall views (Figure 4) ==
	//   PH={Hosp.B, Hosp.D, Hosp.S, Hosp.T, Ins.C} EH={Ins.P}
	//   PI={Hosp.B, Ins.C, Ins.P} EI={Hosp.D, Hosp.S, Hosp.T}
	//   PU={Hosp.D, Hosp.S, Hosp.T, Ins.C, Ins.P} EU={}
	//   PX={Hosp.D, Hosp.T} EX={Hosp.S, Ins.C, Ins.P}
	//   PY={Hosp.B, Hosp.D, Hosp.T, Ins.P} EY={Hosp.S, Ins.C}
	//   PZ={Hosp.S, Hosp.T, Ins.C} EZ={Hosp.D, Ins.P}
	//
	// == Query ==
	//   select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100
	//
	// == Plan with candidate sets Λ and min-view profiles (Figure 6) ==
	// σ[avg(Ins.P) > 100]   Λ={U,Y}  v: {Ins.P} ⟨{Hosp.T}⟩  i: {Ins.P} ⟨{Hosp.D, Hosp.T}⟩  ≃: {{Hosp.S, Ins.C}}
	//   γ[Hosp.T; avg(Ins.P)]   Λ={H,U,X,Y,Z}  v: {} ⟨{Hosp.T, Ins.P}⟩  i: {} ⟨{Hosp.D, Hosp.T}⟩  ≃: {{Hosp.S, Ins.C}}
	//     ⋈[Hosp.S = Ins.C]   Λ={H,U,X,Y,Z}  v: {} ⟨{Hosp.D, Hosp.S, Hosp.T, Ins.C, Ins.P}⟩  i: {} ⟨{Hosp.D}⟩  ≃: {{Hosp.S, Ins.C}}
	//       σ[Hosp.D = 'stroke']   Λ={H,I,U,X,Y,Z}  v: {} ⟨{Hosp.D, Hosp.S, Hosp.T}⟩  i: {} ⟨{Hosp.D}⟩  ≃: {}
	//         Hosp(S,D,T)   v: {Hosp.D, Hosp.S, Hosp.T} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//       Ins(C,P)   v: {Ins.C, Ins.P} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//
	// == Minimally extended authorized plan (cf. Figure 7) ==
	// σ[avg(Ins.P) > 100]   @Y  v: {Hosp.T, Ins.P} ⟨{}⟩  i: {Hosp.D, Hosp.T, Ins.P} ⟨{}⟩  ≃: {{Hosp.S, Ins.C}}
	//   γ[Hosp.T; avg(Ins.P)]   @Y  v: {Hosp.T, Ins.P} ⟨{}⟩  i: {Hosp.D, Hosp.T} ⟨{}⟩  ≃: {{Hosp.S, Ins.C}}
	//     ⋈[Hosp.S = Ins.C]   @Y  v: {Hosp.D, Hosp.T, Ins.P} ⟨{Hosp.S, Ins.C}⟩  i: {Hosp.D} ⟨{}⟩  ≃: {{Hosp.S, Ins.C}}
	//       σ[Hosp.D = 'stroke']   @X  v: {Hosp.D, Hosp.T} ⟨{Hosp.S}⟩  i: {Hosp.D} ⟨{}⟩  ≃: {}
	//         encrypt[Hosp.S:det]   @H  v: {Hosp.D, Hosp.T} ⟨{Hosp.S}⟩  i: {} ⟨{}⟩  ≃: {}
	//           Hosp(S,D,T)   v: {Hosp.D, Hosp.S, Hosp.T} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//       encrypt[Ins.C:det]   @I  v: {Ins.P} ⟨{Ins.C}⟩  i: {} ⟨{}⟩  ≃: {}
	//         Ins(C,P)   v: {Ins.C, Ins.P} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//
	// == Query-plan keys (Definition 6.1) ==
	//   kSC over {Hosp.S, Ins.C} → holders [H I]
	//
	// == Economic cost ==
	//   total=$9.87941e-06 (cpu=$8.47696e-06 io=$1.168e-06 net=$2.34451e-07) time=0.058s
	//
	// == Dispatch (Figure 8) ==
	// reqH@H ← encrypt(Hosp.S,kSC)(Hosp)   keys: kSC
	// reqX@X ← σ[Hosp.D = 'stroke'](⟦reqH⟧)
	// reqI@I ← encrypt(Ins.C,kSC)(Ins)   keys: kSC
	// reqY@Y ← σ[avg(Ins.P) > 100](γ[Hosp.T; avg(Ins.P)]((⟦reqX⟧ ⋈[Hosp.S = Ins.C] ⟦reqI⟧)))
	//
	// == Plaintext execution ==
	// T           avg(P)
	// ----------  --------
	// surgery     220.0000
	// medication  115.0000
	// == Encrypted execution (same result, data protected in flight) ==
	// T           avg(P)
	// ----------  --------
	// surgery     220.0000
	// medication  115.0000
}
