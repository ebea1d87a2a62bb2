module sparqluo/benchmark

go 1.24

require sparqluo v0.0.0

replace sparqluo => ../
