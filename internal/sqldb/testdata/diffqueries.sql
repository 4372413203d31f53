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
