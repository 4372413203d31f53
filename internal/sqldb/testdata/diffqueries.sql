-- Curated differential corpus: each line runs through the row oracle, the
-- vectorized engine, and the cached Query path on both fixture catalogs.
-- Lines target known divergence hazards: NULL semantics, lossy float64
-- coercion above 2^53, integer overflow, mixed-kind columns, empty-input
-- aggregates, outer-join padding, correlated subqueries, and ORDER BY
-- resolution.
SELECT id, n FROM t1
SELECT DISTINCT id FROM t1 ORDER BY 1 DESC
SELECT id, n, f FROM t1 WHERE n > 0 AND f < 10
SELECT id FROM t1 WHERE n IS NULL OR f IS NULL
SELECT s FROM t1 WHERE s LIKE '%a%'
SELECT m FROM t1 WHERE m = 7
SELECT m FROM t1 WHERE m = '7'
SELECT n, n * n FROM t1 WHERE n > 9007199254740990
SELECT n + 0.5 FROM t1 ORDER BY 1
SELECT id, n / 0 FROM t1
SELECT id, n % 4 FROM t1 WHERE n IS NOT NULL
SELECT COUNT(*), COUNT(n), COUNT(DISTINCT id) FROM t1
SELECT SUM(n), AVG(f), MIN(s), MAX(s) FROM t1
SELECT SUM(n), COUNT(*) FROM empty
SELECT MIN(id), MAX(w) FROM empty
SELECT id, COUNT(*) FROM t1 GROUP BY id ORDER BY 2 DESC, 1
SELECT id, SUM(n) FROM t1 GROUP BY id HAVING COUNT(*) > 3 ORDER BY 1
SELECT s, AVG(f) FROM t1 WHERE f IS NOT NULL GROUP BY s ORDER BY 2
SELECT id % 3, COUNT(*) FROM t1 GROUP BY id % 3 ORDER BY 1
SELECT a.id, b.tag FROM t1 a JOIN t2 b ON a.id = b.id ORDER BY 1, 2 LIMIT 20
SELECT a.id, b.v FROM t1 a LEFT JOIN t2 b ON a.id = b.id WHERE b.v IS NULL
SELECT COUNT(*) FROM t1 a JOIN t2 b ON a.id = b.id AND TRUE
SELECT COUNT(*) FROM t1 a JOIN t2 b ON a.n > b.v
SELECT a.id, t3.k FROM t1 a CROSS JOIN t3 ORDER BY 1, 2 LIMIT 15
SELECT a.id, b.id, t3.k FROM t1 a JOIN t2 b ON a.id = b.id LEFT JOIN t3 ON b.id = t3.k ORDER BY 1, 2, 3 LIMIT 25
SELECT b.tag, COUNT(*), SUM(a.n) FROM t1 a JOIN t2 b ON a.id = b.id GROUP BY b.tag ORDER BY 1
SELECT id FROM t1 WHERE id IN (SELECT id FROM t2 WHERE v > 0) ORDER BY 1
SELECT id FROM t1 WHERE id NOT IN (SELECT id FROM t2) ORDER BY 1
SELECT s FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.id = t1.id AND t2.v > 5)
SELECT id FROM t1 WHERE n > (SELECT AVG(v) FROM t2) ORDER BY 1
SELECT id, (SELECT MAX(v) FROM t2) FROM t1 LIMIT 3
SELECT CASE WHEN n > 0 THEN 'pos' WHEN n < 0 THEN 'neg' ELSE 'zero' END, COUNT(*) FROM t1 GROUP BY 1 ORDER BY 1
SELECT CAST(f AS INTEGER), CAST(id AS TEXT) FROM t1 WHERE f IS NOT NULL ORDER BY 1, 2 LIMIT 10
SELECT COALESCE(n, -999), NULLIF(id, 3) FROM t1 ORDER BY 1 LIMIT 10
SELECT LOWER(s), UPPER(s), LENGTH(s), TRIM(s) FROM t1 WHERE s IS NOT NULL ORDER BY 1 LIMIT 8
SELECT n AS val FROM t1 WHERE n BETWEEN -10 AND 30 ORDER BY val DESC LIMIT 7 OFFSET 2
SELECT 1 + 2, 'x', NULL, 4.5 / 1.5
SELECT id, f FROM t1 ORDER BY f DESC LIMIT 5
SELECT DISTINCT tag FROM t2 ORDER BY 1
SELECT airline FROM airlines WHERE fatal_accidents = 0 ORDER BY 1
SELECT a.airline, r.population FROM airlines a JOIN regions r ON a.region = r.region ORDER BY 1
SELECT a.airline, r.population FROM airlines a LEFT JOIN regions r ON a.region = r.region ORDER BY 1
SELECT region, SUM(fatal_accidents) FROM airlines GROUP BY region ORDER BY 1
SELECT COUNT(*) FROM airlines WHERE region IS NULL
SELECT 9223372036854775806 + 1
SELECT 4611686018427387904 * 2
SELECT SUM(CASE WHEN k = 1 THEN 9223372036854775807 WHEN k = 2 THEN 4611686018427387904 END) FROM t3
-- One engine (DESIGN.md §12): the shapes that reached the row engine before
-- every statement ran on its vectorized plan. Short-circuits: the row engine
-- evaluates only the AND, OR and CASE operands a row reaches, so an eager
-- stage that fails is replayed row by row.
SELECT CASE WHEN "s" IS NULL THEN -"s" ELSE 0 END FROM "t1"
SELECT id FROM t1 WHERE s IS NULL AND -s IS NULL
SELECT id FROM t1 WHERE s IS NOT NULL OR -s > 0
SELECT id FROM t1 WHERE CASE WHEN s IS NULL THEN -s ELSE 1 END = 1 ORDER BY 1
SELECT id, s IS NULL AND -s > 0, s IS NOT NULL OR -s > 0 FROM t1
SELECT SUM(CASE WHEN s IS NULL THEN -s ELSE n END), MAX(s IS NOT NULL OR -s > 0) FROM t1
SELECT id, COUNT(s IS NULL AND -s = 0) FROM t1 GROUP BY id ORDER BY 1
SELECT id, CASE WHEN COUNT(*) > 100 THEN SUM(-s) END FROM t1 GROUP BY id HAVING COUNT(*) < 100 OR SUM(-s) > 0
SELECT COUNT(*) FROM t1 GROUP BY CASE WHEN s IS NULL THEN -s ELSE id END
-- Error order: the first error is the first a row meets, expressions in
-- statement order within the row.
SELECT DISTINCT ("s" / -"m"), "n" FROM "t1" WHERE ("f" NOT IN ('alpha', 100.0, 0.5))
SELECT n * m, -s FROM t1
SELECT id FROM t1 WHERE n * m < 0 AND -s = 0
SELECT COUNT(*) FROM t1 GROUP BY n * m, -s
SELECT id, SUM(n * m), MIN(-s) FROM t1 GROUP BY id
SELECT id, SUM(n) FROM t1 GROUP BY id ORDER BY SUM(n * m), MIN(-s)
SELECT id FROM t1 ORDER BY n * m, -s
-- Correlated subqueries: once per enclosing row, nested, in ON, under
-- aggregation, and over an empty outer table.
SELECT id, (SELECT COUNT(*) FROM t2 WHERE t2.id = t1.id) FROM t1
SELECT id, n FROM t1 WHERE n > (SELECT MIN(v) FROM t2 WHERE t2.id = t1.id)
SELECT id FROM t1 WHERE id + 1 IN (SELECT k FROM t3 WHERE t3.k = t1.id + 1) ORDER BY 1
SELECT s FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.id = t1.id)
SELECT id FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.id = t1.id AND EXISTS (SELECT 1 FROM t3 WHERE t3.k = t2.id AND t3.k + t1.id > 2))
SELECT id, (SELECT COUNT(*) FROM t2 WHERE t2.id = t1.id AND t2.v > (SELECT MIN(f) FROM t1 x WHERE x.id = t2.id)) FROM t1
SELECT (SELECT MAX(v) FROM t2 WHERE t2.id = e.id) FROM empty e
SELECT COUNT(*), (SELECT COUNT(*) FROM t2 WHERE t2.id = e.id) FROM empty e
SELECT COUNT(*) FROM empty e WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.id = e.id)
SELECT a.id, t3.k FROM t1 a JOIN t3 ON t3.k = (SELECT MIN(id) FROM t2 WHERE t2.id > a.id)
SELECT id, (SELECT COUNT(*) FROM t2 WHERE t2.id = t1.id) FROM t1 GROUP BY id ORDER BY 1
SELECT SUM((SELECT COUNT(*) FROM t2 WHERE t2.id = t1.id)) FROM t1
SELECT id, (SELECT v FROM t2 WHERE t2.id = t1.id) FROM t1
SELECT id, (SELECT t1.s) FROM t1 WHERE id < 2
SELECT id FROM t1 WHERE s IS NOT NULL OR (SELECT -t1.s) > 0
-- Nested-loop and CROSS joins: the ON clause as a compiled expression over
-- pairs in left-major order, a failing window replayed pair by pair.
SELECT a.id, b.id FROM t1 a LEFT JOIN t2 b ON a.id + 1 = b.id
SELECT a.id, e.w FROM t1 a LEFT JOIN empty e ON a.id < e.id
SELECT a.id, t3.k FROM t1 a JOIN t3 ON t3.z IS NULL AND -t3.z IS NULL ORDER BY 1, 2
SELECT COUNT(*) FROM t1 a CROSS JOIN t3 ON CASE WHEN t3.z IS NULL THEN -t3.z IS NULL ELSE a.id = t3.k END
SELECT COUNT(*) FROM t1 a JOIN t3 ON a.id = 5 AND -t3.z = 0
SELECT COUNT(*) FROM t1 a JOIN t2 b ON a.n * a.m < 0 AND -b.tag = 0
SELECT COUNT(*) FROM t1 a LEFT JOIN t3 ON a.id < 3 OR -t3.z = 0
SELECT a.id, b.tag, c.k FROM t1 a JOIN t2 b ON a.id = b.id LEFT JOIN t3 c ON c.k > b.v AND c.flag
-- Unresolved names and misplaced aggregates fail only when a row reaches
-- them; an empty table answers empty.
SELECT id FROM t1 WHERE nosuch = 1
SELECT id FROM empty WHERE nosuch = 1
SELECT nosuch FROM t1
SELECT nosuch FROM empty
SELECT COUNT(*), nosuch FROM empty
SELECT id FROM t1 WHERE COUNT(*) > 1
SELECT id FROM empty WHERE COUNT(*) > 1
SELECT SUM(COUNT(id)) FROM t1
SELECT SUM(COUNT(id)) FROM empty
SELECT id FROM t1 ORDER BY t1.*
-- Unknown tables, RIGHT JOIN and * expansion, each where the row engine
-- meets it.
SELECT * FROM nosuch
SELECT a.id FROM t1 a JOIN nosuch b ON a.id = b.id
SELECT id, (SELECT COUNT(*) FROM nosuch) FROM t1
SELECT id, (SELECT COUNT(*) FROM nosuch) FROM empty
SELECT COUNT(*) FROM t1 a JOIN t3 ON -t3.z = 0 RIGHT JOIN t2 b ON a.id = b.id
SELECT COUNT(*) FROM t1 a JOIN t3 ON -t3.z = 0 JOIN nosuch b ON a.id = b.id
SELECT x.* FROM t1
SELECT x.* FROM t1 WHERE -s = 0
-- Aggregate-context shapes evaluated over the group's first row.
SELECT "id" BETWEEN 1 AND 3, COUNT(*) FROM "t1" GROUP BY "id"
SELECT "id" BETWEEN MIN("n") AND 3 FROM "t1" GROUP BY "id"
SELECT id IN (1, 2), n IS NULL, COUNT(*) FROM t1 GROUP BY id ORDER BY 3, 1
SELECT id IN (1, 2), COUNT(*) FROM empty
SELECT EXISTS (SELECT 1 FROM t2 WHERE t2.id = t1.id), COUNT(*) FROM t1 GROUP BY id
-- Aggregate context, stage by stage: HAVING, then the items, then the ORDER BY
-- keys, group by group in first-appearance order; AND, OR and CASE evaluate
-- only the operands a group reaches. Group 1 (id 0) fails in its second item
-- before group 2 (id 1) fails in its first.
SELECT CASE WHEN id = 1 THEN SUM(s) ELSE 0 END, CASE WHEN id = 0 THEN CAST(MAX(s) AS INTEGER) ELSE 0 END FROM t1 GROUP BY id
SELECT id, COUNT(*) FROM t1 GROUP BY id HAVING COUNT(*) > 0 OR SUM(s) > 0 ORDER BY 1
SELECT id, CASE WHEN COUNT(*) > 100 THEN SUM(s) WHEN MAX(n) > 0 THEN MAX(n) ELSE -MIN(n) END FROM t1 GROUP BY id ORDER BY 1
SELECT w, id, COUNT(*), MAX(w) FROM empty
SELECT s, MAX(n), s IS NULL FROM t1 WHERE id > 100
SELECT id FROM t1 GROUP BY id ORDER BY SUM(n) DESC, id
SELECT id, COUNT(*) FROM t1 GROUP BY id ORDER BY MAX(f) - MIN(f), 1
SELECT id, MAX(n + COUNT(*)) FROM t1 GROUP BY id
SELECT id, MAX(n) FROM t1 GROUP BY id HAVING SUM(COUNT(*)) > 0
-- BETWEEN, IN and IS NULL fold the aggregates in their operands like every
-- other operator; only column references and subqueries read the group's
-- first row. Each answer below equals the sqlite3 CLI's over t1's id and n
-- (a bool as 1/0 there).
SELECT id, COUNT(*) FROM t1 GROUP BY id HAVING COUNT(*) BETWEEN 1 AND 3 ORDER BY id
SELECT id, COUNT(n) IN (1, 3) FROM t1 GROUP BY id ORDER BY id
SELECT id, SUM(n) FROM t1 GROUP BY id HAVING SUM(n) IS NOT NULL ORDER BY id
SELECT id, COUNT(*) FROM t1 GROUP BY id HAVING COUNT(*) - 2 IN (SELECT 2) ORDER BY id
SELECT id, COUNT(*) IN (SELECT COUNT(*) FROM t1 AS x WHERE x.id = t1.id) FROM t1 GROUP BY id ORDER BY id
SELECT id, MAX(n) FROM t1 WHERE n IS NOT NULL GROUP BY id HAVING NOT MAX(n) BETWEEN 0 AND 40 ORDER BY id
SELECT id, SUM(n) IS NULL, MIN(n) NOT BETWEEN -10 AND 10 FROM t1 WHERE id <> 3 GROUP BY id ORDER BY id
SELECT COUNT(*) BETWEEN 20 AND 30, SUM(n) IS NULL, MAX(id) NOT IN (SELECT 9) FROM t1
