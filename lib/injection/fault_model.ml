type t = Single_bit_transient

let validated t = t
let tag Single_bit_transient = "single_bit"
