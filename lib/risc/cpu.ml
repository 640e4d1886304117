include Isa

let step = Fetch.step
let run = Translate.run
let prewarm = Translate.prewarm
let cached_block_len = Translate.cached_block_len
let cache_stats t = Ferrite_machine.Tcache.stats t.cache
let run_retired t = t.cache.Ferrite_machine.Tcache.run_retired
let superblocks_on t = t.cache.Ferrite_machine.Tcache.sb_enabled
