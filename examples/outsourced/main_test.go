package main

// Example pins every byte main prints for the outsourced-relation
// walkthrough. A change to planning, assignment, dispatch or execution
// that alters the output fails here.
func Example() {
	main()
	// Output:
	// == Stored-encrypted leaf: candidates and profiles ==
	// σ[avg(Ins.P) > 100]   Λ={U,Y}  v: {Ins.P} ⟨{Hosp.T}⟩  i: {Ins.P} ⟨{Hosp.D, Hosp.T}⟩  ≃: {{Hosp.S, Ins.C}}
	//   γ[Hosp.T; avg(Ins.P)]   Λ={U,X,Y}  v: {} ⟨{Hosp.T, Ins.P}⟩  i: {} ⟨{Hosp.D, Hosp.T}⟩  ≃: {{Hosp.S, Ins.C}}
	//     ⋈[Hosp.S = Ins.C]   Λ={U,X,Y}  v: {} ⟨{Hosp.D, Hosp.S, Hosp.T, Ins.C, Ins.P}⟩  i: {} ⟨{Hosp.D}⟩  ≃: {{Hosp.S, Ins.C}}
	//       σ[Hosp.D = 'stroke']   Λ={H,U,W,X,Y}  v: {} ⟨{Hosp.D, Hosp.S, Hosp.T}⟩  i: {} ⟨{Hosp.D}⟩  ≃: {}
	//         Hosp(S,D,T)   v: {Hosp.T} ⟨{Hosp.D, Hosp.S}⟩  i: {} ⟨{}⟩  ≃: {}
	//       Ins(C,P)   v: {Ins.C, Ins.P} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//
	// == Optimized extended plan ==
	// σ[avg(Ins.P) > 100]   @Y  v: {Hosp.T, Ins.P} ⟨{}⟩  i: {Hosp.T, Ins.P} ⟨{Hosp.D}⟩  ≃: {{Hosp.S, Ins.C}}
	//   γ[Hosp.T; avg(Ins.P)]   @Y  v: {Hosp.T, Ins.P} ⟨{}⟩  i: {Hosp.T} ⟨{Hosp.D}⟩  ≃: {{Hosp.S, Ins.C}}
	//     ⋈[Hosp.S = Ins.C]   @Y  v: {Hosp.T, Ins.P} ⟨{Hosp.D, Hosp.S, Ins.C}⟩  i: {} ⟨{Hosp.D}⟩  ≃: {{Hosp.S, Ins.C}}
	//       σ[Hosp.D = 'stroke']   @W  v: {Hosp.T} ⟨{Hosp.D, Hosp.S}⟩  i: {} ⟨{Hosp.D}⟩  ≃: {}
	//         Hosp(S,D,T)   v: {Hosp.T} ⟨{Hosp.D, Hosp.S}⟩  i: {} ⟨{}⟩  ≃: {}
	//       encrypt[Ins.C:det]   @I  v: {Ins.P} ⟨{Ins.C}⟩  i: {} ⟨{}⟩  ≃: {}
	//         Ins(C,P)   v: {Ins.C, Ins.P} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//
	// == Keys (the at-rest key is reused for the join cluster) ==
	//   kStore over {Hosp.D, Hosp.S, Ins.C} → holders [H I]
	//
	// == Result (decrypted at the user) ==
	// T           avg(P)
	// ----------  --------
	// surgery     220.0000
	// medication  117.5000
	//
	// == Transfers ==
	//   W → Y: 4 rows, 206 bytes
	//   I → Y: 6 rows, 168 bytes
	//
	// Note: Hosp.S and Hosp.D never existed in plaintext outside the
	// authority H — not at the storage provider, not at the computing
	// providers, not on the wire.
}
