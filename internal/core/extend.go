package core

import (
	"fmt"
	"sort"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
	"mpq/internal/sql"
)

// Assignment maps every non-leaf node of a query plan to the subject that
// executes it (the λ function of Definition 4.2). Leaf nodes have no
// assignee: base relations stay where they are hosted (see Executor).
type Assignment map[algebra.Node]authz.Subject

// Executor returns the subject at which node n runs: the hosting subject of
// a base relation (its data authority, or the storage provider of a remotely
// stored relation), λ(n) for every operation. Cost pricing, plan extension,
// key distribution, fragment partitioning, dispatch, and EXPLAIN all place
// nodes by this one rule.
func (a Assignment) Executor(n algebra.Node) authz.Subject {
	if b, ok := n.(*algebra.Base); ok {
		return authz.Subject(b.Host())
	}
	return a[n]
}

// Key is one encryption key established for a query plan execution
// (Definition 6.1): it covers a cluster of attributes (an intersection of
// the encrypted attributes with a root equivalence set, or a singleton) and
// is distributed to the subjects that encrypt or decrypt those attributes.
type Key struct {
	ID      string
	Attrs   algebra.AttrSet
	Holders []authz.Subject
}

// NeedsPaillier reports whether key k covers an attribute encrypted under
// Paillier, i.e. whether its ring needs a Paillier key pair (Section 5 gives
// each attribute the weakest scheme its operations allow, so only keys of
// homomorphically aggregated attributes do).
func (ext *ExtendedPlan) NeedsPaillier(k Key) bool {
	for a := range k.Attrs.All() {
		if ext.Schemes[a] == algebra.SchemePaillier {
			return true
		}
	}
	return false
}

// ExtendedPlan is a minimally extended authorized query plan (Definition
// 5.4) together with its assignment (covering the injected encryption and
// decryption operations), the per-attribute encryption schemes, the
// established keys, and the profiles of the extended plan.
type ExtendedPlan struct {
	Root     algebra.Node
	Assign   Assignment
	Schemes  map[algebra.Attr]algebra.Scheme
	Keys     []Key
	Profiles map[algebra.Node]profile.Profile
	// Source maps each node of the extended plan back to the original node
	// it derives from (injected encrypt/decrypt nodes map to the node they
	// complement).
	Source map[algebra.Node]algebra.Node
	// Partials holds the cross-subject edges that carry pre-shuffle partial
	// aggregation, keyed by the shipped node (see MarkPartials). Nil when
	// no edge qualifies.
	Partials map[algebra.Node]PartialEdge
}

// Extend builds the minimally extended authorized query plan for the given
// assignment λ, which must pick a candidate for every non-leaf node
// (λ(n) ∈ Λ(n)). Following Definition 5.4, on each operand edge it:
//
//	i)  decrypts the attributes the parent needs in plaintext (Ap ∩ Rve);
//	ii) encrypts the plaintext attributes that the parent's assignee may
//	    only see encrypted (E_So ∩ Rvp), plus those the parent's operation
//	    turns implicit while some ancestor's assignee may only see them
//	    encrypted (A = (Rip_o ∩ Rvp) ∩ ⋃x E_Sx).
//
// Encryption nodes are assigned to the subject of the node they follow (the
// data authority for a base relation); decryption nodes to the assignee of
// the operation they precede.
func (s *System) Extend(an *Analysis, lambda Assignment) (*ExtendedPlan, error) {
	ext, err := s.ExtendUnkeyed(an, lambda)
	if err != nil {
		return nil, err
	}
	s.establishKeys(ext)
	return ext, nil
}

// ExtendUnkeyed is Extend without key establishment (Definition 6.1): it
// builds the same extended plan, executors, profiles and schemes, but leaves
// Keys nil and the injected operations without key ids. The cost model does
// not read keys, so it prices the plan exactly as it prices Extend's; the
// optimizer uses it for trial assignments and extends the one it keeps with
// Extend.
func (s *System) ExtendUnkeyed(an *Analysis, lambda Assignment) (*ExtendedPlan, error) {
	for n, cands := range an.Candidates {
		subj, ok := lambda[n]
		if !ok {
			return nil, fmt.Errorf("core: no assignee for operation %s", n.Op())
		}
		if !containsSubject(cands, subj) {
			return nil, fmt.Errorf("core: %s is not a candidate for %s (Λ = %v)", subj, n.Op(), cands)
		}
	}

	ext := &ExtendedPlan{
		Assign:   make(Assignment),
		Schemes:  make(map[algebra.Attr]algebra.Scheme),
		Profiles: make(map[algebra.Node]profile.Profile),
		Source:   make(map[algebra.Node]algebra.Node),
	}

	// encView[x] is E_{λ(x)} for the node's assignee; ancestors' sets are
	// accumulated top-down in build.
	root, _, err := s.build(an, lambda, an.Root, algebra.AttrSet{}, ext)
	if err != nil {
		return nil, err
	}
	ext.Root = root

	if err := s.chooseSchemes(ext); err != nil {
		return nil, err
	}
	return ext, nil
}

// build recursively constructs the extended subtree for original node n.
// ancestorsE is the union of E_Sx over the assignees of n's ancestors (not
// including n itself). It returns the extended node and its result profile.
func (s *System) build(an *Analysis, lambda Assignment, n algebra.Node, ancestorsE algebra.AttrSet, ext *ExtendedPlan) (algebra.Node, profile.Profile, error) {
	children := n.Children()
	if len(children) == 0 {
		pr := an.Profiles[n]
		ext.Profiles[n] = pr
		ext.Source[n] = n
		return n, pr, nil
	}

	subj := lambda[n]
	view := an.Views[subj]
	selfE := view.E
	// childAncestorsE is read, never written, so it may share the view's E
	// (at the root) or the caller's set (when selfE adds nothing to it).
	childAncestorsE := ancestorsE
	switch {
	case ancestorsE.Empty():
		childAncestorsE = selfE
	case !selfE.SubsetOf(ancestorsE):
		childAncestorsE = selfE.Union(ancestorsE)
	}

	ap := an.Reqs[n]
	impAdd := implicitAdditions(n)

	newChildren := make([]algebra.Node, len(children))
	childProfiles := make([]profile.Profile, len(children))
	for i, c := range children {
		cNode, cProf, err := s.build(an, lambda, c, childAncestorsE, ext)
		if err != nil {
			return nil, profile.Profile{}, err
		}

		// Rule (ii): encryption after the child. E_So ∩ Rvp protects the
		// operands from the parent's assignee; A protects attributes the
		// parent turns implicit from ancestors with encrypted-only views.
		encSet := selfE.Intersect(cProf.VP)
		aSet := impAdd.Intersect(cProf.VP).Intersect(childAncestorsE)
		encSet = encSet.Union(aSet)
		if !encSet.Empty() {
			cNode, cProf = s.addEncrypt(ext, cNode, cProf, encSet, lambda.Executor(c), c)
		}

		// Rule (i): decryption of the attributes the operation needs in
		// plaintext that arrive encrypted.
		decSet := ap.Intersect(cProf.VE)

		// Opportunistic decryption (Section 6: assignment and encryption
		// decisions combine when encryption is not negligible): when the
		// operation would otherwise force an expensive scheme — Paillier for
		// additive aggregation, OPE for order comparisons — and the assignee
		// may see the attribute in plaintext with nobody downstream
		// requiring it encrypted, decrypt instead.
		oppo := expensiveSchemeAttrs(n).
			Intersect(cProf.VE).
			Intersect(view.P).
			Diff(childAncestorsE)
		decSet = decSet.Union(oppo)
		if !decSet.Empty() {
			cNode, cProf = s.addDecrypt(ext, cNode, cProf, decSet, subj, n)
		}

		newChildren[i] = cNode
		childProfiles[i] = cProf
	}

	// Uniform visibility of compared attributes: an 'ai op aj' condition
	// needs both sides plaintext or both encrypted. For every connected
	// component of compared attributes arriving in mixed form, encrypt the
	// plaintext side when some member must stay encrypted downstream (it is
	// in E of the assignee or of an ancestor's assignee), and decrypt the
	// encrypted side otherwise.
	if pairs := comparedPairs(n); len(pairs) > 0 {
		comps := profile.NewEquivSets()
		for _, pr := range pairs {
			comps.Union(algebra.NewAttrSet(pr[0], pr[1]))
		}
		for _, comp := range comps.Sets() {
			vis := func(i int) (enc, plain algebra.AttrSet) {
				return comp.Intersect(childProfiles[i].VE), comp.Intersect(childProfiles[i].VP)
			}
			var allEnc, allPlain algebra.AttrSet
			for i := range children {
				e, p := vis(i)
				allEnc = allEnc.Union(e)
				allPlain = allPlain.Union(p)
			}
			if allEnc.Empty() || allPlain.Empty() {
				continue // already uniform
			}
			if comp.Intersects(childAncestorsE) {
				// Some member may not travel in plaintext: encrypt the
				// plaintext members on their edges.
				for i, c := range children {
					_, p := vis(i)
					if !p.Empty() {
						newChildren[i], childProfiles[i] = s.addEncrypt(
							ext, newChildren[i], childProfiles[i], p, lambda.Executor(c), c)
					}
				}
			} else {
				// Every member may be plaintext for the subjects involved
				// from here up: decrypt the encrypted members.
				for i := range children {
					e, _ := vis(i)
					if !e.Empty() {
						newChildren[i], childProfiles[i] = s.addDecrypt(
							ext, newChildren[i], childProfiles[i], e, subj, n)
					}
				}
			}
		}
	}

	out := algebra.Rebuild(n, newChildren)
	pr := profile.ForNode(out, childProfiles)
	ext.Assign[out] = subj
	ext.Profiles[out] = pr
	ext.Source[out] = n
	return out, pr, nil
}

// addEncrypt appends an encryption node over attrs to the extended operand
// chain, assigned to executor (the subject producing the operand).
func (s *System) addEncrypt(ext *ExtendedPlan, node algebra.Node, prof profile.Profile, attrs algebra.AttrSet, executor authz.Subject, source algebra.Node) (algebra.Node, profile.Profile) {
	encNode := algebra.NewEncrypt(node, attrs.Sorted())
	ext.Assign[encNode] = executor
	ext.Source[encNode] = source
	out := profile.Encrypt(prof, attrs)
	ext.Profiles[encNode] = out
	return encNode, out
}

// addDecrypt appends a decryption node over attrs to the extended operand
// chain, assigned to the subject executing the consuming operation.
func (s *System) addDecrypt(ext *ExtendedPlan, node algebra.Node, prof profile.Profile, attrs algebra.AttrSet, subj authz.Subject, source algebra.Node) (algebra.Node, profile.Profile) {
	decNode := algebra.NewDecrypt(node, attrs.Sorted())
	ext.Assign[decNode] = subj
	ext.Source[decNode] = source
	out := profile.Decrypt(prof, attrs)
	ext.Profiles[decNode] = out
	return decNode, out
}

// expensiveSchemeAttrs returns the attributes whose encrypted evaluation at
// n would demand a costly scheme: additively aggregated attributes
// (Paillier) and order-compared attributes (OPE).
func expensiveSchemeAttrs(n algebra.Node) algebra.AttrSet {
	var out algebra.AttrSet
	markPred := func(p algebra.Pred) {
		algebra.WalkPred(p, func(q algebra.Pred) {
			if av, ok := q.(*algebra.CmpAV); ok {
				if !av.Op.IsEquality() && av.Op != sql.OpNeq && av.Op != sql.OpLike {
					out.Add(av.A)
				}
			}
		})
	}
	switch x := n.(type) {
	case *algebra.GroupBy:
		for _, spec := range x.Aggs {
			if !spec.Star && (spec.Func == sql.AggAvg || spec.Func == sql.AggSum) {
				out.Add(spec.Attr)
			}
		}
	case *algebra.Select:
		markPred(x.Pred)
	case *algebra.Join:
		markPred(x.Cond)
	}
	out.Remove(algebra.CountAttr())
	return out
}

// comparedPairs returns the attribute pairs compared by n's condition.
func comparedPairs(n algebra.Node) [][2]algebra.Attr {
	var pred algebra.Pred
	switch x := n.(type) {
	case *algebra.Select:
		pred = x.Pred
	case *algebra.Join:
		pred = x.Cond
	default:
		return nil
	}
	var out [][2]algebra.Attr
	for _, pr := range algebra.AttrPairs(pred) {
		if !algebra.IsSynthetic(pr[0]) && !algebra.IsSynthetic(pr[1]) {
			out = append(out, pr)
		}
	}
	return out
}

// implicitAdditions returns the attributes that executing n adds to the
// implicit component of its result profile (Rip_o when the operands are
// plaintext): attributes compared against values by selections and
// grouping attributes of group-bys.
func implicitAdditions(n algebra.Node) algebra.AttrSet {
	switch x := n.(type) {
	case *algebra.Select:
		return algebra.ValueAttrs(x.Pred)
	case *algebra.Join:
		return algebra.ValueAttrs(x.Cond)
	case *algebra.GroupBy:
		out := algebra.NewAttrSet(x.Keys...)
		out.Remove(algebra.CountAttr())
		return out
	default:
		return algebra.AttrSet{}
	}
}

func containsSubject(list []authz.Subject, s authz.Subject) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Scheme selection (Section 6)

// opNeed records which computations are performed over an attribute while it
// is encrypted.
type opNeed struct {
	equality bool
	order    bool
	sum      bool
}

// chooseSchemes walks the extended plan and assigns to every encrypted
// attribute the scheme providing the highest protection while supporting
// the operations executed over its encrypted values: randomized when no
// operation touches the ciphertext, deterministic for equality only, OPE
// when order comparisons are needed, Paillier for sums/averages.
func (s *System) chooseSchemes(ext *ExtendedPlan) error {
	needs := make(map[algebra.Attr]*opNeed)
	need := func(a algebra.Attr) *opNeed {
		if n, ok := needs[a]; ok {
			return n
		}
		n := &opNeed{}
		needs[a] = n
		return n
	}

	// sharing clusters attributes that are compared together while
	// encrypted: their ciphertexts must be mutually comparable, so they
	// must share a scheme (and, per Definition 6.1, a key).
	sharing := profile.NewEquivSets()

	var firstErr error
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if firstErr != nil {
			return
		}
		children := n.Children()
		encVisible := func(a algebra.Attr) bool {
			for _, c := range children {
				if ext.Profiles[c].VE.Has(a) {
					return true
				}
			}
			return false
		}
		mark := func(a algebra.Attr, op sql.CompareOp) {
			if !encVisible(a) {
				return
			}
			switch {
			case op == sql.OpLike:
				firstErr = fmt.Errorf("core: LIKE over encrypted attribute %s is unsupported", a)
			case op.IsEquality() || op == sql.OpNeq:
				need(a).equality = true
			default:
				need(a).order = true
			}
		}
		markPred := func(pred algebra.Pred) {
			algebra.WalkPred(pred, func(p algebra.Pred) {
				switch c := p.(type) {
				case *algebra.CmpAV:
					mark(c.A, c.Op)
				case *algebra.CmpAA:
					mark(c.L, c.Op)
					mark(c.R, c.Op)
					if encVisible(c.L) && encVisible(c.R) {
						sharing.Union(algebra.NewAttrSet(c.L, c.R))
					}
				}
			})
		}
		switch x := n.(type) {
		case *algebra.Select:
			markPred(x.Pred)
		case *algebra.Join:
			markPred(x.Cond)
		case *algebra.GroupBy:
			for _, k := range x.Keys {
				if encVisible(k) {
					need(k).equality = true
				}
			}
			for _, spec := range x.Aggs {
				if spec.Star || !encVisible(spec.Attr) {
					continue
				}
				switch spec.Func {
				case sql.AggSum, sql.AggAvg:
					need(spec.Attr).sum = true
				case sql.AggMin, sql.AggMax:
					need(spec.Attr).order = true
				case sql.AggCount:
					// counting needs no access to the values
				}
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}

	// Merge the needs of attributes whose ciphertexts must be comparable.
	for _, set := range sharing.Sets() {
		merged := &opNeed{}
		for a := range set.All() {
			if nd, ok := needs[a]; ok {
				merged.equality = merged.equality || nd.equality
				merged.order = merged.order || nd.order
				merged.sum = merged.sum || nd.sum
			}
		}
		for a := range set.All() {
			needs[a] = merged
		}
	}

	// Attributes encrypted at rest use deterministic encryption (fixed at
	// storage time); anything sharing their cluster must follow.
	for a := range storedEncrypted(ext.Root).All() {
		ext.Schemes[a] = algebra.SchemeDeterministic
		if nd := needs[a]; nd != nil && (nd.sum || nd.order) {
			return fmt.Errorf("core: attribute %s is stored deterministically encrypted but needs %s over ciphertexts",
				a, map[bool]string{true: "aggregation", false: "order comparison"}[nd.sum])
		}
	}

	// Resolve each attribute ever encrypted in the plan.
	encrypted := encryptedAttrs(ext.Root)
	for a := range encrypted.All() {
		nd := needs[a]
		scheme := algebra.SchemeRandom
		if nd != nil {
			switch {
			case nd.sum && (nd.equality || nd.order):
				return fmt.Errorf("core: attribute %s needs both homomorphic aggregation and comparison over ciphertexts", a)
			case nd.sum:
				scheme = algebra.SchemePaillier
			case nd.order:
				scheme = algebra.SchemeOPE
			case nd.equality:
				scheme = algebra.SchemeDeterministic
			}
		}
		ext.Schemes[a] = scheme
	}

	// Annotate the encryption nodes.
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if e, ok := n.(*algebra.Encrypt); ok {
			for _, a := range e.Attrs {
				e.Schemes[a] = ext.Schemes[a]
			}
		}
	})
	return nil
}

// encryptedAttrs returns every attribute appearing in an encryption
// operation of the plan (the set Ak of Definition 6.1).
func encryptedAttrs(root algebra.Node) algebra.AttrSet {
	var out algebra.AttrSet
	algebra.PostOrder(root, func(n algebra.Node) {
		if e, ok := n.(*algebra.Encrypt); ok {
			out.Add(e.Attrs...)
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// Key establishment (Definition 6.1)

// establishKeys clusters the encrypted attributes by the equivalence sets of
// the root profile — attributes compared together must share a key — and
// creates one key per cluster, held by the subjects that encrypt or decrypt
// its attributes. Attributes stored encrypted at rest carry their
// pre-established storage keys: any cluster containing one adopts that key
// (attributes compared with them must be encrypted under it to be
// comparable), with the data authority always among the holders.
func (s *System) establishKeys(ext *ExtendedPlan) {
	ak := encryptedAttrs(ext.Root)
	storageKey := make(map[algebra.Attr]string)
	storageOwner := make(map[string]authz.Subject)
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if b, ok := n.(*algebra.Base); ok {
			for a := range b.EncSet().All() {
				storageKey[a] = b.StorageKey
				storageOwner[b.StorageKey] = authz.Subject(b.Authority)
			}
		}
	})
	for a := range storageKey {
		ak.Add(a)
	}
	rootEq := ext.Profiles[ext.Root].Eq

	var clusters []algebra.AttrSet
	var assigned algebra.AttrSet
	for _, eqSet := range rootEq.Sets() {
		inter := ak.Intersect(eqSet)
		if !inter.Empty() {
			clusters = append(clusters, inter)
			assigned = assigned.Union(inter)
		}
	}
	for _, a := range ak.Diff(assigned).Sorted() {
		clusters = append(clusters, algebra.NewAttrSet(a))
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].String() < clusters[j].String() })

	// Resolve cluster ids; clusters sharing a storage key collapse into one
	// Key entry (they are protected by the same material).
	type namedCluster struct {
		id string
		cl algebra.AttrSet
	}
	var named []namedCluster
	byID := make(map[string]int)
	for _, cl := range clusters {
		id := ""
		names := make([]string, 0, cl.Len())
		for _, a := range cl.Sorted() {
			names = append(names, a.Name)
			if sk, ok := storageKey[a]; ok {
				id = sk
			}
		}
		if id == "" {
			id = "k" + strings.Join(names, "")
		}
		if j, ok := byID[id]; ok {
			named[j].cl = named[j].cl.Union(cl)
			continue
		}
		byID[id] = len(named)
		named = append(named, namedCluster{id: id, cl: cl})
	}
	keyOf := make(map[algebra.Attr]int)
	ext.Keys = make([]Key, len(named))
	for i, nc := range named {
		for a := range nc.cl.All() {
			keyOf[a] = i
		}
		ext.Keys[i] = Key{ID: nc.id, Attrs: nc.cl}
	}

	// Holders: the subjects assigned to encryption/decryption operations
	// touching the cluster's attributes.
	holders := make([]map[authz.Subject]struct{}, len(clusters))
	for i := range holders {
		holders[i] = make(map[authz.Subject]struct{})
	}
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		var attrs []algebra.Attr
		var keyIDs map[algebra.Attr]string
		switch x := n.(type) {
		case *algebra.Encrypt:
			attrs, keyIDs = x.Attrs, x.KeyIDs
		case *algebra.Decrypt:
			attrs, keyIDs = x.Attrs, x.KeyIDs
		default:
			return
		}
		subj := ext.Assign[n]
		for _, a := range attrs {
			i := keyOf[a]
			keyIDs[a] = ext.Keys[i].ID
			holders[i][subj] = struct{}{}
		}
	})
	for i := range ext.Keys {
		if owner, ok := storageOwner[ext.Keys[i].ID]; ok {
			holders[i][owner] = struct{}{}
		}
		hs := make([]authz.Subject, 0, len(holders[i]))
		for s := range holders[i] {
			hs = append(hs, s)
		}
		sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
		ext.Keys[i].Holders = hs
	}
}
