package main

// expectedDigest pins each corpus workload's vaccine digest for
// defaultSeed: the digest over every vaccine one pass produces, which
// the untraced AnalyzeCorpus path and the traced decomposition must
// both reproduce.
var expectedDigest = map[string]string{
	"corpus-clinic":  "40ae97d70e7d83515eef1eb0bab1879ccabd40c49043a570fe4618e30895f5c4",
	"corpus-evasive": "d2c887c0409b899005529e7fee664ff63fef5068e8f21ac0fd2f6cae48b70629",
}
