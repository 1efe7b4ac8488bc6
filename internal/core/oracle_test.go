package core

import "mpq/internal/algebra"

// NoCrypto disables every computation over encrypted data: every operation
// requires its inputs in plaintext.
func NoCrypto() Capabilities { return Capabilities{} }

// Requirements is RequirementsTyped without attribute types.
func Requirements(root algebra.Node, caps Capabilities) PlaintextReqs {
	return RequirementsTyped(root, caps, nil)
}
