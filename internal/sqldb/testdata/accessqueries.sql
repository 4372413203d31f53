-- Access-path corpus: queries over accessDB (access_test.go), whose tables
-- are past the row-count rule, aimed at the places an equality index, a
-- memoised fold or an index join could part from the scan they replace.
-- Like every corpus file, each line also runs on the other fixture catalogs,
-- where it exercises the unknown-table error surface.
-- Equality index: duplicate keys in ascending order, NULL keys, absent keys,
-- a literal on the left, two equalities intersected, a probe plus a scan.
SELECT v, u FROM big WHERE k = 'k007'
SELECT v FROM big WHERE 'k007' = k
SELECT COUNT(*), MIN(v), MAX(v) FROM big WHERE k = 'nope'
SELECT v FROM big WHERE k = ''
SELECT v FROM big WHERE u = 'u01234'
SELECT COUNT(*) FROM big WHERE k = NULL
SELECT v FROM big WHERE k = 'k013' AND i = 13
SELECT v FROM big WHERE k = 'k013' AND 14 = i
SELECT v FROM big WHERE i = 13 AND k = 'k013' AND v = 1337
SELECT v FROM big WHERE k = 'k013' AND b = TRUE AND v > 1000
SELECT v, k FROM big WHERE i = 13 AND k IS NULL
SELECT u FROM big WHERE v = 2547
SELECT u FROM big WHERE v = 2548
-- The float64-image equality rule: an int column against float literals,
-- signed zeros, integers above 2^53 that share an image.
SELECT v FROM big WHERE i = 1.0
SELECT v FROM big WHERE i = 1.5
SELECT v FROM big WHERE 256.0 = i
SELECT v FROM big WHERE f = 0
SELECT v FROM big WHERE f = -0.0
SELECT v FROM big WHERE f = 1 AND v < 700
SELECT v FROM big WHERE f = 31.5
SELECT v FROM big WHERE i = 9007199254740992
SELECT v FROM big WHERE i = 9007199254740993
SELECT v FROM big WHERE i = 9007199254740994
SELECT v FROM big WHERE i = 9007199254740992.0
-- Columns that keep the scan: NaN-bearing, mixed-kind, boolean, and text
-- against a number (which coerces).
SELECT v FROM big WHERE nf = 1.5
SELECT COUNT(*) FROM big WHERE nf = 0 AND k = 'k000'
SELECT COUNT(*) FROM big WHERE m = 3
SELECT COUNT(*) FROM big WHERE m = '5'
SELECT COUNT(*) FROM big WHERE b = TRUE
SELECT COUNT(*) FROM big WHERE k = 7
SELECT COUNT(*) FROM big WHERE i = '7'
SELECT COUNT(*) FROM big WHERE i = '7' AND k = 'k007'
-- Fold memo: every aggregate of a whole column, each half of a percentage,
-- and the shapes that must not take it (filtered, grouped, computed).
SELECT COUNT(i), SUM(i), AVG(i), MIN(i), MAX(i) FROM big
SELECT COUNT(f), SUM(f), AVG(f), MIN(f), MAX(f) FROM big
SELECT COUNT(nf), SUM(nf), MIN(nf), MAX(nf) FROM big
SELECT COUNT(k), COUNT(u), COUNT(m), COUNT(b), COUNT(*), MIN(k), MAX(m) FROM big
SELECT MAX(i) - MIN(i), SUM(v), COUNT(DISTINCT i) FROM big
SELECT (SELECT COUNT(u) FROM big WHERE k = 'k007') * 100.0 / (SELECT COUNT(u) FROM big)
SELECT SUM(i), MIN(f) FROM big WHERE v >= 0
SELECT SUM(i), MIN(f) FROM big WHERE v >= 1
SELECT SUM(i + 0), MAX(-f) FROM big
SELECT k, SUM(i), COUNT(f) FROM big GROUP BY k ORDER BY 1 LIMIT 5
SELECT COUNT(w), MIN(w), MAX(id) FROM bigdim
-- Index join: the small side on either side of the big one, LEFT padding,
-- NULL and absent keys, an int key against a float key, and the keys that
-- take a per-query index instead (NaN-bearing, text, too many matches).
SELECT b.v, d.tag FROM big b JOIN dim d ON b.i = d.id WHERE d.tag = 'x'
SELECT d.id, b.v FROM dim d JOIN big b ON d.id = b.i WHERE d.tag = 'y'
SELECT d.id, d.tag, b.v FROM dim d LEFT JOIN big b ON d.id = b.i
SELECT d.fid, b.v FROM dim d LEFT JOIN big b ON d.fid = b.i WHERE d.tag <> 'x'
SELECT d.id, b.v FROM dim d JOIN big b ON d.id = b.f
SELECT d.fid, b.v FROM dim d JOIN big b ON b.f = d.fid WHERE d.tag = 'z'
SELECT d.id, b.v FROM dim d JOIN big b ON d.id = b.nf
SELECT d.id, b.v FROM dim d JOIN big b ON d.name = b.k WHERE d.tag = 'z'
SELECT b.v, d.id FROM big b LEFT JOIN dim d ON b.i = d.id WHERE b.k = 'k007'
SELECT b.v, d.id FROM big b LEFT JOIN dim d ON b.i = d.id WHERE d.tag = 'x'
SELECT b.v, d.id FROM big b JOIN dim d ON b.i = d.id
SELECT COUNT(*), SUM(e.w) FROM big b JOIN bigdim e ON b.i = e.id
SELECT b.v, e.w FROM big b JOIN bigdim e ON b.v = e.id WHERE b.u = 'u00077'
SELECT e.w, b.u FROM bigdim e JOIN big b ON b.v = e.id WHERE e.w = 2.5
SELECT b.v, d.tag, e.w FROM big b JOIN dim d ON b.i = d.id JOIN bigdim e ON d.id = e.id WHERE d.tag = 'x' AND b.k = 'k003'
SELECT d.id, b.v FROM dim d JOIN big b ON d.id = b.i WHERE d.tag = 'y' AND b.f = 2
-- The right key's index first: a LEFT join of the big side against a cached
-- index, two whole images, a filtered right side that gets an index of its
-- own for the query, and a right side holding a NaN, which matches by
-- joinKey string.
SELECT b.v, e.w FROM big b LEFT JOIN bigdim e ON b.i = e.id
SELECT b.v, e.w FROM big b LEFT JOIN bigdim e ON b.f = e.id WHERE b.v < 600
SELECT COUNT(*), SUM(b.v) FROM bigdim e JOIN big b ON e.w = b.f
SELECT b.v, e.w FROM big b JOIN bigdim e ON b.i = e.id WHERE e.w >= 0.5 AND b.v < 900
SELECT COUNT(*), SUM(b.v) FROM big b LEFT JOIN bigdim e ON b.nf = e.id WHERE e.w > 0 OR e.w IS NULL
SELECT e.id, b.v FROM bigdim e JOIN big b ON e.w = b.nf WHERE e.id < 40
SELECT b.v, c.v FROM big b JOIN big c ON b.u = c.k
