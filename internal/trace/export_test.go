package trace

// The residue codec, for the bench-stream tests in package trace_test.
var (
	SaveResidue = saveResidue
	LoadResidue = loadResidue
)

// NumOps is the first undefined Op.
const NumOps = numOps
