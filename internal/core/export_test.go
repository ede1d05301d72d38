package core

// The cache-key functions, for the external key tests.
var (
	SubSolutionKey = subSolutionKey
	PolicyKey      = policyKey
	MergeKey       = mergeKey
)
