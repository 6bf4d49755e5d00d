package repro.store

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import repro.video.Formats._
import repro.video.{CodecModel, SynthVideo, VideoProfile}

/** Spark-backed segment store: the LMDB substitute (DESIGN.md).
  *
  * Ingestion transcodes each 8-second segment of the incoming stream into
  * every storage format of the configuration (§5). One Spark job, `runJob`
  * over the physical plan's (segId, motion) rows (`queryExecution.toRdd`,
  * read by ordinal, so no encoder or per-frame object is built), streams one
  * stream's frames once and returns, per partition, each segment's frame
  * count and motion sum; the driver merges the partials of segments split
  * across partitions and applies the codec model to each segment under each
  * storage format, emitting one catalog row per (segment, format) with its
  * stored size. The catalog is per-segment metadata, so it is returned as a
  * driver-local Dataset. The task function is a named class,
  * [[SegmentPartials]], for the reason given at `QueryEngine`: Spark's
  * closure cleaner returns at once for it.
  *
  * Erosion (§4.4) deletes whole segments of one format by age, a catalog
  * operation: it is a Column-expression filter, which Catalyst folds into
  * the local relation of a driver-local catalog, so no Spark job runs. The
  * per-format totals are summed on the driver over the collected
  * (sfId, value) pairs: no job on a local catalog, no shuffle on a cached
  * one.
  */
object SegmentStore {

  /** One stored-segment catalog row. `sfId` indexes into the configuration's
    * storage-format list; the size is in bytes.
    */
  final case class StoredSegment(video: String, segId: Long, sfId: Int, bytes: Double)

  /** Ingest: transcode `frames`, the frame table of the stream `video`,
    * into each storage format.
    *
    * Eager: the one Spark job over `frames` runs when `ingest` is called, and
    * the returned catalog is a local Dataset, sorted by (segId, sfId). A
    * table of several streams fails: its segments are too long.
    *
    * The per-segment motion level modulates encoded size the way content
    * complexity does for x264 (heavier motion compresses worse), so each
    * segment's size is derived from its actual frame data, not just the
    * dataset-level profile.
    */
  def ingest(spark: SparkSession, frames: DataFrame, sfs: Seq[StorageFormat],
             video: VideoProfile): Dataset[StoredSegment] = {
    require(sfs.nonEmpty, "ingest: the configuration has no storage formats")
    val rows = frames.select("segId", "motion").queryExecution.toRdd
    val partials = spark.sparkContext.runJob(rows, new SegmentPartials, rows.partitions.indices).flatten
    val segments = partials.groupMapReduce(_._1)(p => (p._2, p._3)) {
      case ((n1, s1), (n2, s2)) => (n1 + n2, s1 + s2)
    }
    val perSec = sfs.map(CodecModel.storedBytesPerSec(_, video))
    val catalog = segments.toSeq.sortBy(_._1).flatMap { case (seg, (n, motionSum)) =>
      require(n <= SynthVideo.SegmentFrames, s"ingest: segment $seg has $n frames, more than " +
        s"${SynthVideo.SegmentFrames}; a frame table must hold one stream")
      val segSec = n.toDouble / SynthVideo.Fps
      // mean motion of this segment relative to the dataset mean (1.0)
      val rel = math.max(0.25, math.min(4.0, motionSum / n / video.motionFactor))
      sfs.indices.map { i =>
        // raw size is content-independent
        val scale = if (sfs(i).coding.isRaw) 1.0 else rel
        StoredSegment(video.name, seg, i, perSec(i) * segSec * scale)
      }
    }
    spark.createDataset(catalog)(storedSegmentEncoder)
  }

  /** The catalog row encoder, derived by reflection once. */
  private val storedSegmentEncoder = Encoders.product[StoredSegment]

  /** Total stored bytes per storage format id. */
  def bytesByFormat(stored: Dataset[StoredSegment]): Map[Int, Double] = {
    import stored.sparkSession.implicits._
    stored.select(col("sfId"), col("bytes")).as[(Int, Double)].collect()
      .groupMapReduce(_._1)(_._2)(_ + _)
  }

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

/** [[SegmentStore.ingest]]'s task: over rows of (segId, motion), one
  * partition's (segId, frames, motion sum) per segment; a segment that
  * straddles partitions yields one partial in each. It keeps a running
  * total for the current segment and touches the map only when the segment
  * changes, which in the frame table's segment order is once per segment.
  * A named class, not a lambda, so that Spark's closure cleaner skips it.
  */
private[store] final class SegmentPartials
    extends ((TaskContext, Iterator[InternalRow]) => Array[(Long, Int, Double)]) with Serializable {
  def apply(task: TaskContext, rows: Iterator[InternalRow]): Array[(Long, Int, Double)] = {
    var acc = Map.empty[Long, (Int, Double)]
    // the current run
    var seg = 0L
    var n = 0
    var motion = 0.0
    def flush(): Unit = if (n > 0) {
      val (n0, m0) = acc.getOrElse(seg, (0, 0.0))
      acc = acc.updated(seg, (n0 + n, m0 + motion))
    }
    rows.foreach { r =>
      if (n == 0 || r.getLong(0) != seg) {
        flush()
        seg = r.getLong(0)
        n = 0
        motion = 0.0
      }
      n += 1
      motion += r.getDouble(1)
    }
    flush()
    acc.iterator.map { case (s, (k, m)) => (s, k, m) }.toArray
  }
}
