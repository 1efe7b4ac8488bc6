package main

// Example pins every byte main prints for the medical study walkthrough.
// A change to planning, assignment, dispatch or execution that alters the
// output fails here.
func Example() {
	main()
	// Output:
	// == Study query ==
	//   select riskscore(age, variant_score) as risk
	// 	          from Patients
	// 	          join Genomes on pid = gid
	// 	          join Dispensations on pid = did
	// 	          where diagnosis = 'stroke' and drug = 'warfarin'
	//
	// == Candidates per operation ==
	// π[Patients.age]   Λ={G,M,R}  v: {} ⟨{Patients.age}⟩  i: {} ⟨{Dispensations.drug, Patients.diagnosis}⟩  ≃: {{Dispensations.did, Genomes.gid, Patients.pid}, {Genomes.variant_score, Patients.age}}
	//   µ[riskscore(Patients.age,Genomes.variant_score)→Patients.age]   Λ={M,R}  v: {Patients.age} ⟨{Dispensations.did, Dispensations.drug, Genomes.gid, Patients.diagnosis, Patients.pid}⟩  i: {} ⟨{Dispensations.drug, Patients.diagnosis}⟩  ≃: {{Dispensations.did, Genomes.gid, Patients.pid}, {Genomes.variant_score, Patients.age}}
	//     ⋈[Patients.pid = Dispensations.did]   Λ={G,M,R}  v: {} ⟨{Dispensations.did, Dispensations.drug, Genomes.gid, Genomes.variant_score, Patients.age, Patients.diagnosis, Patients.pid}⟩  i: {} ⟨{Dispensations.drug, Patients.diagnosis}⟩  ≃: {{Dispensations.did, Genomes.gid, Patients.pid}}
	//       ⋈[Patients.pid = Genomes.gid]   Λ={G,M,R}  v: {} ⟨{Genomes.gid, Genomes.variant_score, Patients.age, Patients.diagnosis, Patients.pid}⟩  i: {} ⟨{Patients.diagnosis}⟩  ≃: {{Genomes.gid, Patients.pid}}
	//         σ[Patients.diagnosis = 'stroke']   Λ={G,HOSPITAL,M,R}  v: {} ⟨{Patients.age, Patients.diagnosis, Patients.pid}⟩  i: {} ⟨{Patients.diagnosis}⟩  ≃: {}
	//           Patients(pid,age,diagnosis)   v: {Patients.age, Patients.diagnosis, Patients.pid} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//         Genomes(gid,variant_score)   v: {Genomes.gid, Genomes.variant_score} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//       σ[Dispensations.drug = 'warfarin']   Λ={G,M,PHARMACY,R}  v: {} ⟨{Dispensations.did, Dispensations.drug}⟩  i: {} ⟨{Dispensations.drug}⟩  ≃: {}
	//         Dispensations(did,drug)   v: {Dispensations.did, Dispensations.drug} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//
	// == Optimized extended plan ==
	// π[Patients.age]   @M  v: {Patients.age} ⟨{}⟩  i: {Dispensations.drug, Patients.diagnosis} ⟨{}⟩  ≃: {{Dispensations.did, Genomes.gid, Patients.pid}, {Genomes.variant_score, Patients.age}}
	//   µ[riskscore(Patients.age,Genomes.variant_score)→Patients.age]   @M  v: {Dispensations.drug, Patients.age, Patients.diagnosis} ⟨{Dispensations.did, Genomes.gid, Patients.pid}⟩  i: {Dispensations.drug, Patients.diagnosis} ⟨{}⟩  ≃: {{Dispensations.did, Genomes.gid, Patients.pid}, {Genomes.variant_score, Patients.age}}
	//     ⋈[Patients.pid = Dispensations.did]   @M  v: {Dispensations.drug, Genomes.variant_score, Patients.age, Patients.diagnosis} ⟨{Dispensations.did, Genomes.gid, Patients.pid}⟩  i: {Dispensations.drug, Patients.diagnosis} ⟨{}⟩  ≃: {{Dispensations.did, Genomes.gid, Patients.pid}}
	//       ⋈[Patients.pid = Genomes.gid]   @M  v: {Genomes.variant_score, Patients.age, Patients.diagnosis} ⟨{Genomes.gid, Patients.pid}⟩  i: {Patients.diagnosis} ⟨{}⟩  ≃: {{Genomes.gid, Patients.pid}}
	//         σ[Patients.diagnosis = 'stroke']   @M  v: {Patients.age, Patients.diagnosis} ⟨{Patients.pid}⟩  i: {Patients.diagnosis} ⟨{}⟩  ≃: {}
	//           encrypt[Patients.pid:det]   @HOSPITAL  v: {Patients.age, Patients.diagnosis} ⟨{Patients.pid}⟩  i: {} ⟨{}⟩  ≃: {}
	//             Patients(pid,age,diagnosis)   v: {Patients.age, Patients.diagnosis, Patients.pid} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//         encrypt[Genomes.gid:det]   @LAB  v: {Genomes.variant_score} ⟨{Genomes.gid}⟩  i: {} ⟨{}⟩  ≃: {}
	//           Genomes(gid,variant_score)   v: {Genomes.gid, Genomes.variant_score} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//       σ[Dispensations.drug = 'warfarin']   @M  v: {Dispensations.drug} ⟨{Dispensations.did}⟩  i: {Dispensations.drug} ⟨{}⟩  ≃: {}
	//         encrypt[Dispensations.did:det]   @PHARMACY  v: {Dispensations.drug} ⟨{Dispensations.did}⟩  i: {} ⟨{}⟩  ≃: {}
	//           Dispensations(did,drug)   v: {Dispensations.did, Dispensations.drug} ⟨{}⟩  i: {} ⟨{}⟩  ≃: {}
	//
	// optimized cost: total=$0.000203353 (cpu=$0.000160242 io=$3.648e-05 net=$6.63142e-06) time=0.788s
	// without providers: total=$0.000584306 (cpu=$0.0005134 io=$3.648e-05 net=$3.44262e-05) time=0.724s
	// saving from controlled provider involvement: 65.2%
	//
	// == Study result: 33 matching patients ==
	// risk
	// ------
	// 1.5939
	// 0.8116
	// 1.4042
	// 1.3121
	// 0.9225
}
