package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel

class ProfilerSpec extends AnyFunSuite {

  private def fresh() =
    new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)

  test("operator profiles are memoized per (op, fidelity)") {
    val p = fresh()
    val f = Fidelity.full
    val r1 = p.profileOp(OperatorModel.License, f)
    val r2 = p.profileOp(OperatorModel.License, f)
    assert(r1 === r2)
    assert(p.opRuns === 1)
  }

  test("different fidelities are separate runs") {
    val p = fresh()
    p.profileOp(OperatorModel.License, Fidelity.full)
    p.profileOp(OperatorModel.License, Fidelity.full.copy(quality = ImageQuality.Good))
    assert(p.opRuns === 2)
  }

  test("different operators at the same fidelity are separate runs") {
    val p = fresh()
    p.profileOp(OperatorModel.License, Fidelity.full)
    p.profileOp(OperatorModel.OCR, Fidelity.full)
    assert(p.opRuns === 2)
  }

  test("profiling delay accrues sample preparation plus consumption") {
    val p = fresh()
    p.profileOp(OperatorModel.NN, Fidelity.full)
    // NN consumes the 10 s sample at ~2x realtime => several seconds
    assert(p.opDelaySec > 3, s"${p.opDelaySec}")
    val before = p.opDelaySec
    p.profileOp(OperatorModel.NN, Fidelity.full) // memo hit: no extra delay
    assert(p.opDelaySec === before)
  }

  test("profile values come from the analytic backend") {
    val p = fresh()
    val f = Fidelity.full.copy(sampling = FrameSampling.S1_2)
    val r = p.profileOp(OperatorModel.Diff, f)
    assert(r.accuracy === OperatorModel.Diff.accuracy(f, VideoProfile.jackson))
    assert(math.abs(r.consumptionCost - OperatorModel.Diff.consumptionCost(f)) < 1e-12)
  }

  test("storage-format profiles are memoized; examinations counted") {
    val p = fresh()
    val sf = StorageFormat(Fidelity.full, Coding.slowestSmallest)
    val a = p.profileSf(sf)
    val b = p.profileSf(sf)
    assert(a === b)
    assert(p.sfRuns === 1 && p.sfExamined === 2)
  }

  test("codingsBySize is the encoded codings sorted by profiled size, for every fidelity") {
    val p = fresh()
    val encoded = Coding.space.filterNot(_.isRaw)
    Fidelity.space.foreach { f =>
      val want = encoded.sortBy(c => p.profileSf(StorageFormat(f, c)).bytesPerSec)
      assert(p.codingsBySize(f) === want, f.toString)
    }
  }

  test("codingsBySize profiles a fidelity once; a second call adds no runs or examinations") {
    val p = fresh()
    val f = Fidelity.full
    p.codingsBySize(f)
    assert(p.sfRuns === Coding.space.count(!_.isRaw))
    val (runs, examined) = (p.sfRuns, p.sfExamined)
    p.codingsBySize(f)
    assert(p.sfRuns === runs && p.sfExamined === examined)
  }

  test("sf profile reports model size and ingest cores") {
    val p = fresh()
    val sf = StorageFormat(Fidelity.full, Coding.slowestSmallest)
    val r = p.profileSf(sf)
    assert(r.bytesPerSec === CodecModel.storedBytesPerSec(sf, VideoProfile.jackson))
    assert(r.ingestCores === CodecModel.ingestCores(sf, VideoProfile.jackson))
  }
}
