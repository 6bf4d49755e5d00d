package repro.store

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.video.Formats._
import repro.video.{CodecModel, SynthVideo, VideoProfile}

/** Spark-backed segment store: the LMDB substitute (DESIGN.md).
  *
  * Ingestion transcodes each 8-second segment of the incoming stream into
  * every storage format of the configuration (§5). One `mapPartitions` pass
  * streams the frames once and keeps, per partition, each segment's frame
  * count and motion sum; the driver merges the partials of segments split
  * across partitions and applies the codec model to each segment under each
  * storage format, emitting one catalog row per (segment, format) with its
  * stored size and encode CPU cost. The catalog is per-segment metadata, so
  * it is returned as a driver-local Dataset.
  *
  * Erosion (§4.4) deletes whole segments of one format by age, a catalog
  * operation: it is a Column-expression filter, which Catalyst folds into
  * the local relation of a driver-local catalog, so no Spark job runs.
  */
object SegmentStore {

  /** One frame row of the ingest-format frame table. */
  final case class Frame(video: String, segId: Long, frameIdx: Int, frame: Long,
                         isEvent: Boolean, difficulty: Double, motion: Double)

  /** One stored-segment catalog row. `sfId` indexes into the configuration's
    * storage-format list; sizes in bytes, encode cost in CPU-seconds.
    */
  final case class StoredSegment(video: String, segId: Long, sfId: Int,
                                 bytes: Double, encodeCpuSec: Double, nFrames: Int)

  /** Ingest: transcode `frames` into each storage format.
    *
    * Eager: the one Spark job over `frames` runs when `ingest` is called, and
    * the returned catalog is a local Dataset, sorted by (video, segId, sfId).
    *
    * The per-segment motion level modulates encoded size and encode cost the
    * way content complexity does for x264 (heavier motion compresses worse
    * and encodes slower), so each segment's cost is derived from its actual
    * frame data, not just the dataset-level profile.
    */
  def ingest(spark: SparkSession, frames: DataFrame, sfs: Seq[StorageFormat],
             video: VideoProfile): Dataset[StoredSegment] = {
    require(sfs.nonEmpty, "ingest: the configuration has no storage formats")
    import spark.implicits._
    // (video, segId, frames, motion sum) per segment per partition; a
    // segment that straddles partitions yields one partial in each
    val partials = frames.select("video", "segId", "motion").as[(String, Long, Double)]
      .mapPartitions { it =>
        val acc = mutable.HashMap.empty[(String, Long), (Int, Double)]
        it.foreach { case (v, seg, motion) =>
          val (n, sum) = acc.getOrElse((v, seg), (0, 0.0))
          acc((v, seg)) = (n + 1, sum + motion)
        }
        acc.iterator.map { case ((v, seg), (n, sum)) => (v, seg, n, sum) }
      }.collect()
    val segments = partials.groupMapReduce(p => (p._1, p._2))(p => (p._3, p._4)) {
      case ((n1, s1), (n2, s2)) => (n1 + n2, s1 + s2)
    }
    val perSec = sfs.map(CodecModel.storedBytesPerSec(_, video))
    val cores = sfs.map(CodecModel.ingestCores(_, video))
    val rows = segments.toSeq.sortBy(_._1).flatMap { case ((v, seg), (n, motionSum)) =>
      val segSec = n.toDouble / SynthVideo.Fps
      // mean motion of this segment relative to the dataset mean (1.0)
      val rel = math.max(0.25, math.min(4.0, motionSum / n / video.motionFactor))
      sfs.indices.map { i =>
        // raw size and raw ingest cost are content-independent
        val scale = if (sfs(i).coding.isRaw) 1.0 else rel
        StoredSegment(v, seg, i, perSec(i) * segSec * scale, cores(i) * scale * segSec, n)
      }
    }
    spark.createDataset(rows)
  }

  /** Total stored bytes per storage format id. */
  def bytesByFormat(stored: Dataset[StoredSegment]): Map[Int, Double] =
    sumByFormat(stored, "bytes")

  /** Total encode CPU-seconds per storage format id. */
  def encodeCpuByFormat(stored: Dataset[StoredSegment]): Map[Int, Double] =
    sumByFormat(stored, "encodeCpuSec")

  private def sumByFormat(stored: Dataset[StoredSegment], column: String): Map[Int, Double] =
    stored.groupBy("sfId").agg(sum(column))
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap

  /** Apply an erosion plan: drop `deleteFraction` of segments (oldest-id
    * first, deterministically) for the given format. The fraction counts
    * distinct segment ids of that format across every video, and the
    * round(n * fraction) smallest go. Returns the surviving catalog.
    */
  def erode(stored: Dataset[StoredSegment], sfId: Int, deleteFraction: Double)
           (implicit spark: SparkSession): Dataset[StoredSegment] = {
    require(deleteFraction >= 0.0 && deleteFraction <= 1.0,
      s"erode: deleteFraction $deleteFraction is outside [0, 1]")
    import spark.implicits._
    val ids = stored.filter(col("sfId") === sfId).select("segId").as[Long]
      .collect().distinct.sorted
    val nDelete = math.round(ids.length * deleteFraction).toInt
    if (nDelete == 0) stored
    else stored.filter(col("sfId") =!= sfId || col("segId") > ids(nDelete - 1))
  }
}
