let unused x = x
let via_alias x = x
let bound = 10
let via_bench x = x
let via_test x = x
let waived x = x
let stale x = x
