package repro

import org.apache.spark.sql.functions._
import repro.video.{SynthVideo, VideoProfile}

/** The provided DuckDB oracle, exercised directly on synthetic frame tables:
  * it backs every result-correctness check in the reproduction.
  */
class OracleSpec extends SparkSpec {

  // 80 s of jackson: 10 segments of 240 frames
  private lazy val frames = SynthVideo.frames(spark, VideoProfile.jackson, 80).cache()

  test("oracle accepts a matching aggregation") {
    val agg = frames.groupBy("segId")
      .agg(count(lit(1)) as "n", round(sum("motion"), 2) as "m")
    Oracle.assertEquivalent(
      agg,
      "SELECT segId, count(1) AS n, " +
        "round(sum(CAST(motion AS DOUBLE)), 2) AS m " +
        "FROM frames GROUP BY segId",
      "frames" -> frames.select("segId", "motion"))
  }

  test("oracle rejects a wrong result") {
    val wrong = frames.groupBy("segId")
      .agg((count(lit(1)) + 1) as "n") // off by one
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT segId, count(1) AS n FROM frames GROUP BY segId",
        "frames" -> frames.select("segId"))
    }
  }

  test("oracle rejects mismatched column sets") {
    val agg = frames.groupBy("segId").agg(count(lit(1)) as "m")
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        agg,
        "SELECT segId, count(1) AS n FROM frames GROUP BY segId",
        "frames" -> frames.select("segId"))
    }
  }

  test("join between two videos' frame tables agrees with DuckDB") {
    val a = frames.select(col("frame"), col("isEvent") as "aEvent")
    val b = SynthVideo.frames(spark, VideoProfile.dashcam, 80)
      .select(col("frame") as "bFrame", col("isEvent") as "bEvent")
    val j = a.join(b, a("frame") === b("bFrame"))
      .groupBy("aEvent", "bEvent").agg(count(lit(1)) as "n")
    Oracle.assertEquivalent(
      j,
      "SELECT aEvent, bEvent, count(1) AS n FROM a " +
        "JOIN b ON CAST(a.frame AS BIGINT) = CAST(b.bFrame AS BIGINT) " +
        "GROUP BY aEvent, bEvent",
      "a" -> a, "b" -> b)
  }
}
