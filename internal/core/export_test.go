package core

import "rulefit/internal/policy"

// The cache-key functions, for the external key tests.
var (
	SubSolutionKey = subSolutionKey
	PolicyKey      = policyKey
	MergeKey       = mergeKey
)

// CertifySub encodes pol's decomposed sub-problem and returns it, the
// counting certificate's placement (nil when the bound is not met) and
// the sub-MILP's answer on the same encoding.
func CertifySub(prob *Problem, pol *policy.Policy, opts Options) (sub *Problem, cert, milp *Placement, err error) {
	opts = opts.withDefaults()
	sub = &Problem{Network: prob.Network, Routing: prob.Routing, Policies: []*policy.Policy{pol}}
	enc, err := buildEncoding(sub, opts, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	cert, _ = certify(enc)
	milp, err = solveILP(enc, opts, nil)
	return sub, cert, milp, err
}

// MixedProblem is the decomposable fixture whose policy 0 fails the
// counting certificate.
var MixedProblem = mixedProblem

// EncodingReport renders what buildEncoding derives for (prob, opts),
// or with ref set what the map-based reference encoder derives.
var EncodingReport = encodingReport

// EncodeCertify encodes pol's decomposed sub-problem and runs the
// counting certificate on it, as the decomposed path does on a
// fragment cache miss.
func EncodeCertify(prob *Problem, pol *policy.Policy, opts Options) bool {
	_, ok := certifySub(prob, pol, opts.withDefaults(), nil)
	return ok
}
